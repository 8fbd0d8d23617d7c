package mem

import (
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/program"
)

// sliceBytes sums capacity × element size over the slice fields of the
// struct v points to.
func sliceBytes(v any) (n int) {
	s := reflect.ValueOf(v).Elem()
	for i := 0; i < s.NumField(); i++ {
		if f := s.Field(i); f.Kind() == reflect.Slice {
			n += f.Cap() * int(f.Type().Elem().Size())
		}
	}
	return n
}

// TestL2BytesPerLine pins the line record of a Table 3 L2 sized for its 4
// L1s: every array the L2 and its store keep, summed as capacity × element
// size before anything attaches or runs, costs at most 20 bytes per line
// (tag 8, LRU stamp 8, state 1, sharer bits 1, owner 2). The sum walks
// every slice field, so a per-line field added later counts too.
func TestL2BytesPerLine(t *testing.T) {
	q := &engine.Queue{}
	dram := NewDRAM(q, NewChannel(q, 0, program.MemBusOcc), program.DRAMLat)
	l := NewL2(q, L2Config{SizeBytes: program.L2SizeBytes, Ways: program.L2Ways, LineSize: program.LineBytes,
		LookupLat: program.L2LookupLat, ProbeLat: program.L2ProbeLat, MSHRs: program.L2MSHRs},
		program.WPUs, dram, nil)
	lines := program.L2SizeBytes / program.LineBytes
	perLine := float64(sliceBytes(l)+sliceBytes(l.st)) / float64(lines)
	t.Logf("%.2f bytes per L2 line", perLine)
	if perLine > 20 {
		t.Errorf("a Table 3 L2 line costs %.2f bytes, want at most 20", perLine)
	}
}
