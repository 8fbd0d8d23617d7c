package report

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/wpu"
)

// fakeResult builds a distinguishable Result without running a simulation.
func fakeResult(i int) Result {
	r := Result{Bench: fmt.Sprintf("bench-%d", i), Scheme: wpu.SchemeConv, Cycles: uint64(1000 + i)}
	r.Stats.Issued = uint64(i)
	return r
}

// TestStoreParallel hammers one store from many goroutines across
// many keys (run under -race in CI): interleaved saves and loads must
// never corrupt a record or miscount, and every key written must read
// back its own result.
func TestStoreParallel(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	const keysPerWorker = 24
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < keysPerWorker; i++ {
				id := w*keysPerWorker + i
				key := fmt.Sprintf("key-%d", id)
				if err := st.Save(key, fakeResult(id)); err != nil {
					t.Errorf("save %s: %v", key, err)
					return
				}
				// Re-read own key plus a neighbour's (may or may not exist yet).
				got, ok := st.Load(key)
				if !ok {
					t.Errorf("load %s after save: miss", key)
					return
				}
				if got.Cycles != uint64(1000+id) {
					t.Errorf("load %s: cycles %d, want %d", key, got.Cycles, 1000+id)
					return
				}
				if r, ok := st.Load(fmt.Sprintf("key-%d", (id+1)%(workers*keysPerWorker))); ok && r.Bench == "" {
					t.Errorf("neighbour load returned a corrupt record")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	stats := st.Stats()
	if stats.Saves != workers*keysPerWorker {
		t.Errorf("saves = %d, want %d", stats.Saves, workers*keysPerWorker)
	}
	if stats.Hits < workers*keysPerWorker {
		t.Errorf("hits = %d, want >= %d (every own-key re-read must hit)", stats.Hits, workers*keysPerWorker)
	}
	if stats.Records != workers*keysPerWorker {
		t.Errorf("records = %d, want %d", stats.Records, workers*keysPerWorker)
	}
}

// TestStoreLRUEvictionDeterminism pins the eviction order: with a byte
// cap and a known access sequence, exactly the least-recently-used records
// disappear, and which ones is reproducible.
func TestStoreLRUEvictionDeterminism(t *testing.T) {
	dir := t.TempDir()
	// Record sizes are equal (same struct shape, same field widths), so the
	// arithmetic is exact.
	st, err := OpenStoreWith(dir, StoreOptions{MaxBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Discover the record size with a probe, then re-open with a cap that
	// holds exactly three records.
	if err := st.Save("probe", fakeResult(0)); err != nil {
		t.Fatal(err)
	}
	recSize := st.Stats().EvictedBytes // the probe itself was evicted (cap 1 byte)
	if recSize == 0 {
		t.Fatal("probe record not evicted under a 1-byte cap")
	}
	st, err = OpenStoreWith(dir, StoreOptions{MaxBytes: int64(3 * recSize)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := st.Save(fmt.Sprintf("k%d", i), fakeResult(0)); err != nil {
			t.Fatal(err)
		}
	}
	// Touch k0 so k1 becomes the LRU victim of the next save.
	if _, ok := st.Load("k0"); !ok {
		t.Fatal("k0 missing before eviction")
	}
	if err := st.Save("k3", fakeResult(0)); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"k0": true, "k1": false, "k2": true, "k3": true}
	for _, key := range []string{"k0", "k1", "k2", "k3"} {
		_, ok := st.Load(key)
		if ok != want[key] {
			t.Errorf("after eviction, %s present=%v, want %v", key, ok, want[key])
		}
	}
	if ev := st.Stats().Evictions; ev != 1 {
		t.Errorf("evictions = %d, want exactly 1 (k1)", ev)
	}
}

// TestStoreTwoInstancesOneDir runs two Store instances — stand-ins for
// two server processes — against one cache directory: writes from either
// are readable by the other (atomic rename means never a torn record),
// and an eviction by one degrades to a clean miss in the other.
func TestStoreTwoInstancesOneDir(t *testing.T) {
	dir := t.TempDir()
	a, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := DefaultKnobs(wpu.SchemeConv).key("FFT")
	r := fakeResult(7)
	if err := a.Save(key, r); err != nil {
		t.Fatal(err)
	}
	got, ok := b.Load(key) // b never indexed this key; must fall through to disk
	if !ok {
		t.Fatal("instance b cannot see instance a's record")
	}
	if !reflect.DeepEqual(got, r) {
		t.Fatalf("cross-instance read mutated the result:\n got %+v\nwant %+v", got, r)
	}
	// Concurrent same-key writers: last rename wins, both reads are intact.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st := a
			if i%2 == 1 {
				st = b
			}
			if err := st.Save(key, r); err != nil {
				t.Errorf("concurrent save: %v", err)
			}
			if got, ok := st.Load(key); !ok || got.Bench != r.Bench {
				t.Errorf("concurrent load: ok=%v got=%+v", ok, got)
			}
		}(i)
	}
	wg.Wait()
	// Simulate a's eviction of the record: b's index still knows it, but
	// Load must degrade to a miss, not an error or a stale hit.
	if _, ok := b.Load(key); !ok {
		t.Fatal("warm-up load for b failed")
	}
	if err := os.Remove(a.path(a.digest(key))); err != nil { // as a's eviction would
		t.Fatal(err)
	}
	if _, ok := b.Load(key); ok {
		t.Fatal("b returned a record another instance evicted")
	}
}

// dirTotals counts the files under dir and their bytes.
func dirTotals(t *testing.T, dir string) (records int, bytes int64) {
	t.Helper()
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			records++
			bytes += info.Size()
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return records, bytes
}

// TestStoreReindexesExistingFiles proves a freshly opened store sees (and
// caps) records a previous process left behind. Uncapped, it indexes them
// on the first Stats, after loads and a foreign save have indexed some:
// each record is counted once, and the temporary file of a Save that was
// interrupted before its rename is not a record.
func TestStoreReindexesExistingFiles(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := st.Save(fmt.Sprintf("k%d", i), fakeResult(i)); err != nil {
			t.Fatal(err)
		}
	}
	bytesInUse := st.Stats().BytesInUse
	re, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"k0", "k1"} {
		if _, ok := re.Load(key); !ok {
			t.Fatalf("reopened store cannot load %s", key)
		}
	}
	if err := st.Save("k6", fakeResult(6)); err != nil { // a second instance, after re's open
		t.Fatal(err)
	}
	records, bytes := dirTotals(t, dir)
	tmp := filepath.Join(filepath.Dir(re.path(re.digest("k0"))), ".tmp-interrupted")
	if err := os.WriteFile(tmp, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	if rs := re.Stats(); records != 7 || rs.Records != records || rs.BytesInUse != bytes {
		t.Fatalf("reopened store indexed %d records / %d bytes, the directory holds %d / %d, want 7 records",
			rs.Records, rs.BytesInUse, records, bytes)
	}
	// Re-open with a cap below the existing footprint: Open itself evicts.
	capped, err := OpenStoreWith(dir, StoreOptions{MaxBytes: bytesInUse / 2})
	if err != nil {
		t.Fatal(err)
	}
	cs := capped.Stats()
	if cs.Evictions == 0 || cs.BytesInUse > bytesInUse/2 {
		t.Fatalf("open under a cap did not evict: %+v", cs)
	}
}

// TestStoreNarrowLockRace earns the lock's narrow scope: file reads, decodes,
// writes and renames run outside it, so Saves, Loads and evictions of the
// same few records interleave freely (run under -race in CI). Whatever the
// interleaving, a Load returns its own key's Result or a miss, the byte count
// never goes negative, and once the writers have stopped one Load per key
// brings the index back to exactly what the directory holds. It runs on two
// stores: one capped at a few records, so evictions race the Loads, and one
// uncapped over a directory another instance filled, whose first Stats walks
// the directory while the other workers Save and Load.
func TestStoreNarrowLockRace(t *testing.T) {
	const nkeys, workers, rounds = 64, 8, 400
	key := func(i int) string { return fmt.Sprintf("key-%d", i) }
	for _, capped := range []bool{true, false} {
		t.Run(fmt.Sprintf("capped=%v", capped), func(t *testing.T) {
			dir := t.TempDir()
			other, err := OpenStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := other.Save("probe", fakeResult(0)); err != nil {
				t.Fatal(err)
			}
			var opt StoreOptions
			if capped {
				opt.MaxBytes = 5 * other.Stats().BytesInUse // a few records
			} else {
				for i := 0; i < nkeys; i += 2 { // half the workers' keys, and records no worker touches
					for _, k := range []string{key(i), fmt.Sprintf("stale-%d", i)} {
						if err := other.Save(k, fakeResult(i)); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			st, err := OpenStoreWith(dir, opt)
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for n := 0; n < rounds; n++ {
						i := (n*7 + w*13) % nkeys
						if (n+w)%3 == 0 {
							if err := st.Save(key(i), fakeResult(i)); err != nil {
								t.Errorf("save %s: %v", key(i), err)
								return
							}
						} else if r, ok := st.Load(key(i)); ok && !reflect.DeepEqual(r, fakeResult(i)) {
							t.Errorf("load %s returned %+v", key(i), r)
							return
						}
						if b := st.Stats().BytesInUse; b < 0 {
							t.Errorf("BytesInUse = %d", b)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			if capped && st.Stats().Evictions == 0 {
				t.Fatal("the cap never evicted; the test did not cover eviction racing Load")
			}
			st.Load("probe")
			for i := 0; i < nkeys; i++ {
				st.Load(key(i))
			}
			records, bytes := dirTotals(t, dir)
			if s := st.Stats(); s.Records != records || s.BytesInUse != bytes {
				t.Fatalf("index holds %d records / %d bytes, the directory %d / %d", s.Records, s.BytesInUse, records, bytes)
			}
		})
	}
}

// storeMix is a store seeded with 64 keys and the op of a mixed load/save
// workload over them: op i saves key i%64 when i%8 == 0 and loads it
// otherwise, one save per seven loads.
func storeMix(tb testing.TB) func(i int) {
	const nkeys = 64
	st, err := OpenStore(tb.TempDir())
	if err != nil {
		tb.Fatal(err)
	}
	keys := make([]string, nkeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("bench-key-%d", i)
		if err := st.Save(keys[i], fakeResult(i)); err != nil {
			tb.Fatal(err)
		}
	}
	return func(i int) {
		key := keys[i%nkeys]
		if i%8 == 0 {
			if err := st.Save(key, fakeResult(i)); err != nil {
				tb.Error(err)
			}
		} else if _, ok := st.Load(key); !ok {
			tb.Error("load missed a pre-seeded key")
		}
	}
}

// BenchmarkStoreParallel runs storeMix's ops from 8 concurrent clients on
// one store. GOMAXPROCS is raised for the measurement so the clients contend
// for the lock even on a small box. Its time was what decided that one lock
// held only around the index is enough (DESIGN.md "Result store");
// TestStoreMixAllocs holds its allocation count.
func BenchmarkStoreParallel(b *testing.B) {
	op := storeMix(b)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	b.SetParallelism(1) // 8 Ps × 1 = 8 concurrent clients
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for i := 0; pb.Next(); i++ {
			op(i)
		}
	})
}

// TestStoreMixAllocs holds eight of storeMix's ops, one save and seven
// loads, to at most 10 % over the allocation count written here: 9.25 an
// op, which BenchmarkStoreParallel's eight contending clients report as the
// same truncated 9, so one client measures what eight would. (118 with the
// reflective codec, os.ReadFile and a formatted digest.)
func TestStoreMixAllocs(t *testing.T) {
	const pin = 74
	op := storeMix(t)
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 8; i++ {
			op(i)
		}
	})
	t.Logf("StoreParallel: %.0f allocs per save and seven loads", allocs)
	if allocs > 1.1*pin {
		t.Errorf("StoreParallel: %.0f allocs per save and seven loads, pinned at %d (+10 %% allowed)", allocs, pin)
	}
}

// spineRecord is the KMeans DWS.ReviveSplit record of testdata/record.golden:
// a spine point's real Result under its real key, without a simulation.
func spineRecord(tb testing.TB) record {
	text, err := os.ReadFile(filepath.Join("testdata", "record.golden"))
	if err != nil {
		tb.Fatal(err)
	}
	lines := strings.Fields(string(text))
	b, err := hex.DecodeString(lines[len(lines)-1])
	if err != nil {
		tb.Fatal(err)
	}
	var rec record
	if err := decodeRecord(b, &rec); err != nil {
		tb.Fatal(err)
	}
	return rec
}

// storeLoad is a store holding spineRecord and the op of one warm Load of
// it: what report_warm does 96 times a pass.
func storeLoad(tb testing.TB) func() {
	rec := spineRecord(tb)
	st, err := OpenStore(tb.TempDir())
	if err != nil {
		tb.Fatal(err)
	}
	if err := st.Save(rec.Key, rec.Result); err != nil {
		tb.Fatal(err)
	}
	return func() {
		if _, ok := st.Load(rec.Key); !ok {
			tb.Fatal("Load missed the record just saved")
		}
	}
}

// TestStoreLoadsShareNothing: Load reads into a pooled buffer and decodes
// into a pooled record, but no Result it returns shares a string or a
// slice with another or with the pool. Writing into one leaves the next
// Load's untouched, and a Load of another record laid out at the same
// offsets (its key as long, its Bench as long) leaves an earlier one's
// untouched.
func TestStoreLoadsShareNothing(t *testing.T) {
	rec := spineRecord(t)
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	other, otherKey := rec.Result, "KMEANS"+rec.Key[len("KMeans"):]
	other.Bench = "KMEANS"
	if err := st.Save(rec.Key, rec.Result); err != nil {
		t.Fatal(err)
	}
	if err := st.Save(otherKey, other); err != nil {
		t.Fatal(err)
	}
	first, ok := st.Load(rec.Key)
	if !ok {
		t.Fatal("miss")
	}
	for _, row := range first.Stats.ThreadMisses {
		for i := range row {
			row[i]++
		}
	}
	first.Stats.ThreadMisses[0] = nil
	written := encodeRecord(&record{Result: first})
	if r, ok := st.Load(otherKey); !ok || r.Bench != "KMEANS" {
		t.Fatal("the other record does not load")
	}
	if !bytes.Equal(encodeRecord(&record{Result: first}), written) {
		t.Error("a Load wrote into the Result an earlier one returned")
	}
	second, ok := st.Load(rec.Key)
	if !ok || !reflect.DeepEqual(second, rec.Result) {
		t.Error("writing into one Load's Result changed the next one's")
	}
}

// BenchmarkStoreLoad times one warm Load of a spine record (EXPERIMENTS.md
// "Compiled record codec"); TestStoreLoadAllocs holds its allocations.
func BenchmarkStoreLoad(b *testing.B) {
	op := storeLoad(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// keySink keeps BenchmarkKnobKey's call from being optimised away.
var keySink string

// BenchmarkKnobKey times the string form of one point's cache key.
func BenchmarkKnobKey(b *testing.B) {
	k := DefaultKnobs(wpu.SchemeRevive)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		keySink = k.key("KMeans")
	}
}

// TestStoreLoadAllocs holds one warm Load of a spine record to at most 10 %
// over the count written here (31 with the reflective codec and
// os.ReadFile): 19 are the Result's own strings and slices, the rest the
// digest, the path and the open file. It holds the cache key to the one
// allocation of the string it returns (3 when formatted by fmt).
func TestStoreLoadAllocs(t *testing.T) {
	const pin = 25
	op := storeLoad(t)
	allocs := testing.AllocsPerRun(100, op)
	t.Logf("Store.Load: %.0f allocs", allocs)
	if allocs > 1.1*pin {
		t.Errorf("Store.Load: %.0f allocs, pinned at %d (+10 %% allowed)", allocs, pin)
	}
	k := DefaultKnobs(wpu.SchemeRevive)
	if allocs := testing.AllocsPerRun(100, func() { _ = k.key("KMeans") }); allocs != 1 {
		t.Errorf("Knobs.key: %.0f allocs, want 1", allocs)
	}
}

// TestStoreOpenAllocs holds an uncapped open to the same allocation count
// over the spine's 96 records as over an empty directory: opening must not
// read the directory (a walk of 96 records costs ~1 440 allocations).
func TestStoreOpenAllocs(t *testing.T) {
	empty, full := t.TempDir(), t.TempDir()
	st, err := OpenStore(full)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < spinePoints; i++ {
		if err := st.Save(fmt.Sprintf("k%d", i), fakeResult(i)); err != nil {
			t.Fatal(err)
		}
	}
	open := func(dir string) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := OpenStore(dir); err != nil {
				t.Fatal(err)
			}
		})
	}
	e, f := open(empty), open(full)
	t.Logf("OpenStore: %.0f allocs over an empty directory, %.0f over %d records", e, f, spinePoints)
	if f != e {
		t.Errorf("OpenStore allocated %.0f times over %d records and %.0f over none, want equal", f, spinePoints, e)
	}
}
