package report

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/wpu"
)

// fillRandom sets every value under v to something drawn from rng, edge
// cases first: the extremes of int and uint64, signed zeros, subnormal
// and huge floats, empty strings, nil, empty and ragged slices. It walks by
// reflection, so a field added to Result is covered the day it is added.
// NaN is left out only because reflect.DeepEqual cannot compare it.
func fillRandom(rng *rand.Rand, v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(rng.Intn(2) == 1)
	case reflect.Int:
		edges := []int64{0, -1, 1, math.MinInt64, math.MaxInt64, -rng.Int63()}
		v.SetInt(edges[rng.Intn(len(edges))])
	case reflect.Uint64:
		edges := []uint64{0, 1, 127, 128, math.MaxUint64, rng.Uint64()}
		v.SetUint(edges[rng.Intn(len(edges))])
	case reflect.Float64:
		edges := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
			math.MaxFloat32, math.Inf(-1), rng.NormFloat64()}
		v.SetFloat(edges[rng.Intn(len(edges))])
	case reflect.String:
		v.SetString([]string{"", "x", "DWS.ReviveSplit", "café\x00|\n"}[rng.Intn(4)])
	case reflect.Slice:
		n := []int{-1, 0, 1, 3, 17}[rng.Intn(5)]
		if n < 0 {
			v.SetZero() // nil
			return
		}
		v.Set(reflect.MakeSlice(v.Type(), n, n)) // n == 0: empty but not nil
		fallthrough
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fillRandom(rng, v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillRandom(rng, v.Field(i))
		}
	default:
		panic("fillRandom: " + v.Kind().String())
	}
}

// nilEmptySlices turns every empty slice under v into a nil one: the form a
// decode produces for both.
func nilEmptySlices(v reflect.Value) {
	switch v.Kind() {
	case reflect.Slice:
		if v.Len() == 0 {
			v.SetZero()
		}
		fallthrough
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			nilEmptySlices(v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			nilEmptySlices(v.Field(i))
		}
	}
}

func randRecord(rng *rand.Rand) record {
	var rec record
	fillRandom(rng, reflect.ValueOf(&rec).Elem())
	return rec
}

// TestCodecRoundTrip: encode → decode gives back the record, DeepEqual
// modulo nil/empty slices, and encoding that again gives back the bytes
// (which also tells -0 from +0, as DeepEqual does not).
func TestCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	recs := make([]record, 200)
	for i := range recs {
		recs[i] = randRecord(rng)
	}
	// The cases the issue names, whatever the dice did.
	recs[0].Result.Stats.ThreadMisses = nil
	recs[1].Result.Stats.ThreadMisses = [][]uint64{}
	recs[2].Result.Stats.ThreadMisses = [][]uint64{{1, 2, 3}, nil, {}, {math.MaxUint64}}
	recs[3].Result.Cycles = math.MaxUint64
	recs[4].Result.Stats.PeakSplits = -7
	recs[5].Result.Energy.DRAM = math.Copysign(0, -1)
	recs[6].Result.Energy.Clock = math.SmallestNonzeroFloat64
	recs[7].Key, recs[7].Salt, recs[7].Result.Bench = "", "", ""

	for i, want := range recs {
		b := encodeRecord(&want)
		var got record
		if err := decodeRecord(b, &got); err != nil {
			t.Fatalf("record %d does not decode: %v", i, err)
		}
		nilEmptySlices(reflect.ValueOf(&want).Elem())
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("record %d changed in the round trip:\n got %+v\nwant %+v", i, got, want)
		}
		if again := encodeRecord(&got); !bytes.Equal(again, b) {
			t.Fatalf("record %d: re-encoding the decoded record gives different bytes", i)
		}
	}
}

// goldenRecords builds the two records testdata/record.golden holds: a
// random one (every kind, edge values, nil, empty and ragged slices) and a
// real KMeans DWS.ReviveSplit Result under its cache key. The second
// simulates, so it is built only under -update.
func goldenRecords(t *testing.T) []record {
	random := randRecord(rand.New(rand.NewSource(1234)))
	if !*updateGolden {
		return []record{random}
	}
	k := DefaultKnobs(wpu.SchemeRevive)
	r, err := NewSession().Run("KMeans", k)
	if err != nil {
		t.Fatal(err)
	}
	return []record{random, {Key: k.key("KMeans"), Salt: "record-golden", Result: r}}
}

// TestRecordGolden holds the codec to the bytes the reflective encoder it
// replaced wrote into testdata/record.golden, one record per hex line. Both
// records must encode to their line, decode from it — through decodeRecord
// and through a Store's Load — and the random one must decode to the value
// it was made from. A change to Result's layout moves recordShape, and with
// it the salt, so the old bytes are never read; re-take the file then with
// `go test ./internal/report -run RecordGolden -update`.
func TestRecordGolden(t *testing.T) {
	path := filepath.Join("testdata", "record.golden")
	recs := goldenRecords(t)
	if *updateGolden {
		var buf bytes.Buffer
		for i := range recs {
			fmt.Fprintf(&buf, "%x\n", encodeRecord(&recs[i]))
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	text, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	lines := strings.Fields(string(text))
	if len(lines) != 2 {
		t.Fatalf("%s holds %d records, want 2", path, len(lines))
	}
	for i, line := range lines {
		golden, err := hex.DecodeString(line)
		if err != nil {
			t.Fatal(err)
		}
		var got record
		if err := decodeRecord(golden, &got); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if i < len(recs) {
			want := recs[i]
			if b := encodeRecord(&want); !bytes.Equal(b, golden) {
				t.Errorf("record %d encodes to bytes other than the golden's", i)
			}
			nilEmptySlices(reflect.ValueOf(&want).Elem())
			if !reflect.DeepEqual(got, want) {
				t.Errorf("record %d decodes to a value other than the one it was made from", i)
			}
		} else if k := DefaultKnobs(wpu.SchemeRevive); got.Key != k.key("KMeans") ||
			got.Result.Bench != "KMeans" || got.Result.Scheme != wpu.SchemeRevive || got.Result.Cycles == 0 {
			t.Errorf("record %d is not the KMeans record: key %q, %s/%s, %d cycles",
				i, got.Key, got.Result.Bench, got.Result.Scheme, got.Result.Cycles)
		} else if b := encodeRecord(&got); !bytes.Equal(b, golden) {
			t.Errorf("record %d re-encodes to bytes other than the golden's", i)
		}

		st, err := OpenStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		st.salt = got.Salt
		file := st.path(st.digest(got.Key))
		if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(file, golden, 0o644); err != nil {
			t.Fatal(err)
		}
		if r, ok := st.Load(got.Key); !ok || !reflect.DeepEqual(r, got.Result) {
			t.Errorf("record %d: Load hit %v, and its Result differs from decodeRecord's", i, ok)
		}
	}
}

// sealed puts the checksum decodeRecord wants in front of a payload.
func sealed(payload []byte) []byte {
	return append(binary.LittleEndian.AppendUint32(nil, crc32.ChecksumIEEE(payload)), payload...)
}

// leadingStrings reads the two strings a record file begins with, its Key
// and Salt if it is one: the key and salt that take decodeResult furthest
// into b. What is not there reads as "".
func leadingStrings(b []byte) (key, salt string) {
	if len(b) < 4 {
		return "", ""
	}
	rest, n, ok := decodeLen(b[4:])
	if !ok {
		return "", ""
	}
	key, rest = string(rest[:n]), rest[n:]
	if rest, n, ok = decodeLen(rest); ok {
		salt = string(rest[:n])
	}
	return key, salt
}

// FuzzDecodeRecord feeds both decode entry points arbitrary bytes twice: as
// a record file, where almost every mutation dies at the checksum as it
// should, and as a payload under a correct checksum, where it reaches the
// plan. A decode must never panic, must not allocate more than a small
// multiple of its input whatever lengths the input claims, and whatever it
// accepts must survive its own round trip. Load's decodeResult must agree
// with decodeRecord: on a record decodeRecord accepts, it accepts that
// record's Key and Salt, refuses any other key, and decodes the same
// Result; on one decodeRecord refuses, it refuses every key.
func FuzzDecodeRecord(f *testing.F) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 4; i++ {
		rec := randRecord(rng)
		b := encodeRecord(&rec)
		f.Add(b)
		f.Add(b[4:])
		f.Add(append(bytes.Clone(b[4:]), 0)) // a whole record and a byte more
		for _, n := range []int{0, 3, 4, 5, len(b) / 3, len(b) / 2, len(b) - 1} {
			f.Add(b[:n])
			f.Add(b[4:][:max(n-4, 0)])
		}
	}
	f.Add(binary.AppendUvarint(nil, math.MaxUint64))               // a key 2^64 bytes long
	f.Add(append([]byte{0, 0}, bytes.Repeat([]byte{0xff}, 64)...)) // a length that overflows a varint
	f.Fuzz(func(t *testing.T, in []byte) {
		for _, b := range [][]byte{in, sealed(in)} {
			// 24 bytes of slice header per input byte is the worst the format
			// allows; the constant covers the record itself and the runtime's
			// own noise. A length taken at its word would be orders beyond.
			limit := uint64(32*len(b) + 64<<10)
			allocated := func(decode func()) uint64 {
				var ms0, ms1 runtime.MemStats
				runtime.ReadMemStats(&ms0)
				decode()
				runtime.ReadMemStats(&ms1)
				return ms1.TotalAlloc - ms0.TotalAlloc
			}
			var rec record
			var err error
			if got := allocated(func() { err = decodeRecord(b, &rec) }); got > limit {
				t.Fatalf("decodeRecord of %d bytes allocated %d (limit %d)", len(b), got, limit)
			}
			key, salt := leadingStrings(b)
			if err == nil && (key != rec.Key || salt != rec.Salt) {
				t.Fatalf("a record's leading strings are %q, %q, its Key and Salt %q, %q", key, salt, rec.Key, rec.Salt)
			}
			var r Result
			var ok bool
			if got := allocated(func() { ok = decodeResult(b, key, salt, &r) }); got > limit {
				t.Fatalf("decodeResult of %d bytes allocated %d (limit %d)", len(b), got, limit)
			}
			if ok != (err == nil) {
				t.Fatalf("decodeRecord says %v, decodeResult of its key and salt says %v", err, ok)
			}
			if err != nil {
				continue
			}
			// Compared by their bytes: a fuzzed float may be NaN, which
			// DeepEqual never finds equal.
			if !bytes.Equal(encodeRecord(&record{key, salt, r}), encodeRecord(&rec)) {
				t.Fatal("decodeResult and decodeRecord decode different Results")
			}
			if decodeResult(b, key+"x", salt, &r) || decodeResult(b, key, salt+"x", &r) {
				t.Fatal("decodeResult accepts a record under another key or salt")
			}
			enc := encodeRecord(&rec)
			var again record
			if err := decodeRecord(enc, &again); err != nil {
				t.Fatalf("an accepted record does not survive re-encoding: %v", err)
			}
			if !bytes.Equal(encodeRecord(&again), enc) {
				t.Fatal("an accepted record changes in its own round trip")
			}
		}
	})
}

// TestRecordRefusesMalformedPayloads: a payload under a correct checksum
// that is a record cut inside its last value, Energy.Leakage's eight float
// bytes, or a record and a byte more decodes through neither entry point.
func TestRecordRefusesMalformedPayloads(t *testing.T) {
	rec := randRecord(rand.New(rand.NewSource(7)))
	payload := encodeRecord(&rec)[4:]
	for name, b := range map[string][]byte{
		"float64 cut short": sealed(payload[:len(payload)-1]),
		"trailing byte":     sealed(append(slices.Clone(payload), 0)),
	} {
		var got record
		var r Result
		if decodeRecord(b, &got) == nil || decodeResult(b, rec.Key, rec.Salt, &r) {
			t.Errorf("%s: decoded", name)
		}
	}
}

// shapeOf is compile's fingerprint of t alone.
func shapeOf(t reflect.Type) string {
	shape, _ := compile(t)
	return shape
}

// TestShapeFingerprint: the fingerprint moves with one field name, one kind
// or one array length, stays put for a type renamed, and refuses — by panic,
// which for record means at process start — what the codec cannot carry.
func TestShapeFingerprint(t *testing.T) {
	type named uint64
	base := shapeOf(reflect.TypeOf(struct {
		A uint64
		B [4]uint64
		C []string
	}{}))
	for name, typ := range map[string]any{
		"field name": struct {
			A  uint64
			B2 [4]uint64
			C  []string
		}{},
		"kind": struct {
			A int
			B [4]uint64
			C []string
		}{},
		"array length": struct {
			A uint64
			B [5]uint64
			C []string
		}{},
		"field order": struct {
			B [4]uint64
			A uint64
			C []string
		}{},
	} {
		if shapeOf(reflect.TypeOf(typ)) == base {
			t.Errorf("a different %s leaves the fingerprint unchanged: %s", name, base)
		}
	}
	if got := shapeOf(reflect.TypeOf(struct {
		A named
		B [4]named
		C []string
	}{})); got != base {
		t.Errorf("naming a type moved the fingerprint:\n got %s\nwant %s", got, base)
	}
	for name, typ := range map[string]any{
		"map":        struct{ M map[string]int }{},
		"pointer":    struct{ P *int }{},
		"interface":  struct{ I any }{},
		"unexported": struct{ a int }{},
		"bool":       struct{ B bool }{},
		"int32":      struct{ I int32 }{},
		"float32":    struct{ F float32 }{},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("shapeOf accepted a %s field", name)
				}
			}()
			shapeOf(reflect.TypeOf(typ))
		}()
	}
}

// TestSaltDigestsRecordShape: a record laid out differently is written and
// looked up under a different salt, hence a different file name.
func TestSaltDigestsRecordShape(t *testing.T) {
	before := versionSalt()
	defer func(s string) { recordShape = s }(recordShape)
	recordShape += "Extra uint64;"
	if versionSalt() == before {
		t.Fatal("versionSalt ignores the record shape")
	}
}
