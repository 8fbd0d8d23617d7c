package report

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/wpu"
)

// spineExhibits is the §5 scheme-comparison spine: 8 kernels × 12 schemes
// at Table 3 defaults, 96 simulations, the same set the claims benchmark's
// report workloads regenerate.
var spineExhibits = []string{"t1", "7", "11", "13", "headline", "14", "19", "stalls"}

const spinePoints = 96

// faultPass is one pass of TestStoreFaultInjection on a fresh -j 2 session
// over st. It renders the spine exhibits, or Table 1 alone (spineExhibits[0],
// Conv's eight points) when spine is false, and returns each exhibit's
// report bytes and the session's counters. Under -short each exhibit gives
// way to the Results of one scheme on shortBenches: every scheme for the
// spine (24 points, enough for the six faults), Conv for Table 1. Either
// way the first element is Table 1's.
func faultPass(t *testing.T, st *Store, spine bool) ([]string, CacheStats) {
	t.Helper()
	s := NewSession(WithJobs(2), WithStore(st))
	if testing.Short() {
		schemes := wpu.AllSchemes
		if !spine {
			schemes = schemes[:1]
		}
		return suiteRows(t, s, shortBenches, defaults(schemes...)...), s.Stats()
	}
	ids := spineExhibits
	if !spine {
		ids = ids[:1]
	}
	out := make([]string, len(ids))
	for i, id := range ids {
		for _, e := range Exhibits {
			if e.ID == id {
				var buf bytes.Buffer
				if _, err := e.Run(s, &buf, "", false); err != nil {
					t.Fatalf("exhibit %s: %v", id, err)
				}
				out[i] = buf.String()
			}
		}
	}
	return out, s.Stats()
}

// recordFiles lists the store's record files in path order.
func recordFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "??", "*"+recordExt))
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(files)
	return files
}

// faults are the six ways a record file goes bad, each made from the good
// bytes it replaces.
var faults = []struct {
	name string
	make func(t *testing.T, good []byte) []byte
}{
	{"truncated", func(_ *testing.T, good []byte) []byte { return good[:len(good)/2] }},
	{"empty", func(*testing.T, []byte) []byte { return nil }},
	{"bit-flipped", func(_ *testing.T, good []byte) []byte {
		b := bytes.Clone(good)
		b[len(b)/2] ^= 0x10
		return b
	}},
	{"garbage", func(_ *testing.T, good []byte) []byte {
		b := make([]byte, len(good))
		rand.New(rand.NewSource(7)).Read(b)
		return b
	}},
	{"foreign salt", func(t *testing.T, good []byte) []byte { // intact, checksummed, from another build
		var rec record
		if err := decodeRecord(good, &rec); err != nil {
			t.Fatal(err)
		}
		rec.Salt = "0123456789abcdef"
		return encodeRecord(&rec)
	}},
	{"v5 JSON", func(t *testing.T, good []byte) []byte { // what the previous schema kept at such a path
		var rec record
		if err := decodeRecord(good, &rec); err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(map[string]any{"key": rec.Key, "salt": rec.Salt, "result": rec.Result})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}},
}

// TestStoreQuarantine: Load answers each kind of bad record with a miss,
// deletes the file and forgets it — entry and bytes — and counts it.
func TestStoreQuarantine(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := func(i int) string { return fmt.Sprintf("k%d", i) }
	for i := range faults {
		if err := st.Save(key(i), fakeResult(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Save("bystander", fakeResult(99)); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(st.path(st.digest("bystander")))
	if err != nil {
		t.Fatal(err)
	}
	bystander := info.Size()
	for i, f := range faults {
		path := st.path(st.digest(key(i)))
		good, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, f.make(t, good), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := st.Load(key(i)); ok {
			t.Errorf("%s: Load accepted the record", f.name)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("%s: the record file was left in place (%v)", f.name, err)
		}
		if got := st.Stats().Corrupt; got != uint64(i+1) {
			t.Errorf("%s: Corrupt = %d, want %d", f.name, got, i+1)
		}
	}
	stats := st.Stats()
	if stats.Records != 1 || stats.BytesInUse != bystander {
		t.Errorf("after six quarantines the index holds %d records / %d bytes, want 1 / %d",
			stats.Records, stats.BytesInUse, bystander)
	}
	if _, ok := st.Load("bystander"); !ok {
		t.Error("the intact record no longer loads")
	}
	if _, ok := st.Load(key(0)); ok || st.Stats().Corrupt != uint64(len(faults)) {
		t.Error("a quarantined record's second Load is not a plain miss")
	}
}

// TestStoreOversizedRecord: a 1 MiB file of garbage at a record's name is
// quarantined like any bad record — removed, counted, a miss — the buffer
// Load grew to read it is not kept for the next Load, and the next Load of
// a good record still hits.
func TestStoreOversizedRecord(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i, key := range []string{"good", "big"} {
		if err := st.Save(key, fakeResult(i)); err != nil {
			t.Fatal(err)
		}
	}
	path := st.path(st.digest("big"))
	garbage := make([]byte, 1<<20)
	rand.New(rand.NewSource(8)).Read(garbage)
	if err := os.WriteFile(path, garbage, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Load("big"); ok {
		t.Fatal("Load accepted 1 MiB of garbage")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("the garbage was left in place (%v)", err)
	}
	if s := st.Stats(); s.Corrupt != 1 || s.Misses != 1 || s.Records != 1 {
		t.Errorf("store %+v, want 1 corrupt, 1 miss, 1 record", s)
	}
	for i := 0; i < 4; i++ { // the pool hands a goroutine back what it last put
		if b := readBufs.Get().(*[]byte); cap(*b) > maxPooledRead {
			t.Fatalf("Load kept its %d-byte read buffer for reuse", cap(*b))
		}
	}
	if r, ok := st.Load("good"); !ok || !reflect.DeepEqual(r, fakeResult(0)) {
		t.Errorf("the good record after the garbage: hit %v, %+v", ok, r)
	}
}

// TestStoreLoadBoundaries: Load takes a read that leaves room in its buffer
// as the whole file. Records of exactly a new pooled buffer's room, of one
// byte more, and of one byte past maxPooledRead each fill, overflow or
// outgrow the buffer at the edge, and each must load intact and count as
// nothing but a hit.
func TestStoreLoadBoundaries(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	room := cap(*readBufs.New().(*[]byte))
	for _, size := range []int{room, room + 1, maxPooledRead + 1} {
		key := fmt.Sprintf("size-%d", size)
		r := fakeResult(size)
		for pad := 0; ; { // Bench pads the record to size bytes
			n := len(encodeResult(key, st.salt, &r))
			if n == size {
				break
			}
			pad += size - n
			r.Bench = strings.Repeat("x", pad)
		}
		if err := st.Save(key, r); err != nil {
			t.Fatal(err)
		}
		if info, err := os.Stat(st.path(st.digest(key))); err != nil || info.Size() != int64(size) {
			t.Fatalf("record for %d bytes: %v, %v", size, info, err)
		}
		for i := 0; i < 2; i++ { // a fresh buffer, then whatever the first Load left in the pool
			if got, ok := st.Load(key); !ok || !reflect.DeepEqual(got, r) {
				t.Errorf("%d-byte record, load %d: hit %v, round trip intact %v", size, i, ok, reflect.DeepEqual(got, r))
			}
		}
	}
	if s := st.Stats(); s.Corrupt != 0 || s.Misses != 0 || s.Hits != 6 {
		t.Errorf("store %+v, want 6 hits and nothing else", s)
	}
}

// TestReadRecordShortReads: a read that stops short of EOF is taken as the
// whole file only if it decodes. A record arriving a byte at a time still
// loads, a bad one is refused only once all of it has been read, and a read
// error is an error, not a refusal (which Load would delete).
func TestReadRecordShortReads(t *testing.T) {
	const key, salt = "k", "salt"
	want := fakeResult(3)
	good := encodeResult(key, salt, &want)
	bad := bytes.Clone(good)
	bad[len(bad)-1] ^= 1
	var r Result
	if b, ok, err := readRecord(iotest.OneByteReader(bytes.NewReader(good)), nil, key, salt, &r); !ok || err != nil || len(b) != len(good) || !reflect.DeepEqual(r, want) {
		t.Errorf("a record a byte at a time: ok %v, err %v, %d of %d bytes", ok, err, len(b), len(good))
	}
	if b, ok, err := readRecord(iotest.OneByteReader(bytes.NewReader(bad)), nil, key, salt, &r); ok || err != nil || len(b) != len(bad) {
		t.Errorf("a bad record a byte at a time: ok %v, err %v, %d of %d bytes read", ok, err, len(b), len(bad))
	}
	broken := io.MultiReader(bytes.NewReader(good[:len(good)/2]), iotest.ErrReader(io.ErrUnexpectedEOF))
	if _, ok, err := readRecord(broken, nil, key, salt, &r); ok || err == nil {
		t.Errorf("a read error half way: ok %v, err %v", ok, err)
	}
}

// TestStoreFaultInjection is the store's two failure modes end to end,
// against one clean run of the spine over an empty store (under -short, of
// Filter and FFT under every scheme; see faultPass).
//
// Self-healing: six of the records are replaced by the six faults, and the
// next report comes out byte-identical having resimulated exactly those six;
// the one after that is all disk hits again.
//
// Save failures: a store that cannot write costs nothing but the cache.
// Table 1 renders over a store in which every record directory's name is
// taken by a plain file, so each Save fails creating its directory (a
// read-only directory would do for an ordinary user, but tests also run as
// root, whom mode bits do not stop).
func TestStoreFaultInjection(t *testing.T) {
	spineN, table1N := uint64(spinePoints), uint64(len(BenchNames()))
	if testing.Short() {
		spineN, table1N = uint64(len(shortBenches)*len(wpu.AllSchemes)), uint64(len(shortBenches))
	}
	open := func(t *testing.T, dir string) *Store {
		st, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	dir := t.TempDir()
	clean, cold := faultPass(t, open(t, dir), true)
	if cold.Misses != spineN || cold.DiskHits != 0 {
		t.Fatalf("cold run: %+v", cold)
	}

	t.Run("self-healing", func(t *testing.T) {
		files := recordFiles(t, dir)
		if uint64(len(files)) != spineN {
			t.Fatalf("cold run left %d record files, want %d", len(files), spineN)
		}
		for i, f := range faults {
			path := files[i*len(files)/len(faults)] // spread over the directories
			good, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, f.make(t, good), 0o644); err != nil {
				t.Fatal(err)
			}
		}

		st := open(t, dir)
		healed, stats := faultPass(t, st, true)
		if !slices.Equal(healed, clean) {
			t.Error("the report over the damaged store differs from the clean run's")
		}
		if stats.Misses != uint64(len(faults)) || stats.DiskHits != spineN-uint64(len(faults)) {
			t.Errorf("damaged run: %+v, want exactly %d resimulated", stats, len(faults))
		}
		ss := st.Stats()
		if ss.Corrupt != uint64(len(faults)) || ss.Saves != uint64(len(faults)) || uint64(ss.Records) != spineN {
			t.Errorf("damaged run: store %+v, want %d corrupt, as many saved, %d records", ss, len(faults), spineN)
		}

		st = open(t, dir)
		again, stats := faultPass(t, st, true)
		if !slices.Equal(again, clean) {
			t.Error("the report over the healed store differs from the clean run's")
		}
		if stats.Misses != 0 || stats.DiskHits != spineN || st.Stats().Corrupt != 0 {
			t.Errorf("second pass: %+v, corrupt %d; want all disk hits", stats, st.Stats().Corrupt)
		}
	})

	t.Run("save failures", func(t *testing.T) {
		dir := t.TempDir()
		for i := 0; i < 256; i++ {
			if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%02x", i)), nil, 0o444); err != nil {
				t.Fatal(err)
			}
		}
		st := open(t, dir)
		got, stats := faultPass(t, st, false)
		if got[0] != clean[0] {
			t.Error("Table 1 over a store that cannot save differs from the clean run's")
		}
		if stats.Misses != table1N {
			t.Errorf("simulated %d points, want %d", stats.Misses, table1N)
		}
		ss := st.Stats()
		if ss.SaveErrors != table1N || ss.Saves != 0 || ss.Records != 0 || ss.Corrupt != 0 {
			t.Errorf("store %+v, want %d save errors and nothing else", ss, table1N)
		}
	})
}
