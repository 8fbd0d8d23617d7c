package report

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/energy"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/wpu"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenRunDoc builds a fully deterministic document by hand: golden
// comparison must pin the serialized *shape* (field names, order,
// SchemaVersion) without depending on simulator behaviour, which evolves.
func goldenRunDoc() RunDoc {
	hists := &obs.HistSet{}
	hists.L1Hit.Record(3)
	hists.L1Hit.Record(3)
	hists.DRAMServe.Record(137)
	hists.SplitLife.Record(42)
	return RunDoc{
		Schema:        RunDocSchema,
		SchemaVersion: SchemaVersion,
		Bench:         "Filter",
		Scheme:        "DWS.ReviveSplit",
		Knobs:         DefaultKnobs(wpu.Scheme("DWS.ReviveSplit")),
		Source:        "traced-live",
		WallSeconds:   0,
		Cycles:        1000,
		Derived:       RunDerived{MeanSIMDWidth: 12.5, MemStallFrac: 0.4, L1MissRate: 0.05},
		WPU: wpu.Stats{
			TickCycles:        1000,
			BusyCycles:        500,
			StallMemCoherent:  250,
			StallMemDivergent: 150,
			StallBarrier:      40,
			StallICache:       20,
			StallWSTFull:      10,
			StallSlotWait:     10,
			IdleNoLiveWarp:    20,
			Issued:            480,
			ThreadOps:         6000,
		},
		L1:             mem.L1Stats{Accesses: 4000, Misses: 200},
		L2:             mem.L2Stats{Requests: 200, Hits: 150, Misses: 50},
		XbarTransfers:  400,
		DRAMAccesses:   50,
		DRAMWritebacks: 5,
		Energy:         RunEnergy{BreakdownNJ: energy.Breakdown{}, TotalMJ: 1.25},
		Hists:          hists,
	}
}

// TestRunDocGolden pins the serialized run-metrics document byte for byte.
// Any layout change — renamed field, reordered struct, new counter — shows
// up as a diff here and must ride a SchemaVersion bump. Regenerate with
// `go test ./internal/report -run RunDocGolden -update`.
func TestRunDocGolden(t *testing.T) {
	doc := goldenRunDoc()
	var buf bytes.Buffer
	if err := WriteStatsDoc(&buf, []RunDoc{doc}, CacheStats{Misses: 1}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "rundoc.golden.json")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("run-metrics document drifted from golden; if the change is intended, bump SchemaVersion and regenerate with -update\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}

	// The document must also round-trip losslessly through encoding/json.
	var parsed StatsDoc
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatal(err)
	}
	if parsed.SchemaVersion != SchemaVersion || len(parsed.Runs) != 1 {
		t.Fatalf("parsed: version %d, %d runs", parsed.SchemaVersion, len(parsed.Runs))
	}
	if !reflect.DeepEqual(parsed.Runs[0], doc) {
		t.Errorf("round-trip mismatch:\ngot  %+v\nwant %+v", parsed.Runs[0], doc)
	}
}
