package report

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// fillRandom sets every value under v to something drawn from rng, edge
// cases first: the extremes of each integer kind, signed zeros, subnormal
// and huge floats, empty strings, nil, empty and ragged slices. It walks by
// reflection, so a field added to Result is covered the day it is added.
// NaN is left out only because reflect.DeepEqual cannot compare it.
func fillRandom(rng *rand.Rand, v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(rng.Intn(2) == 1)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		bits := v.Type().Bits()
		edges := []int64{0, -1, 1, math.MinInt64 >> (64 - bits), math.MaxInt64 >> (64 - bits), -rng.Int63() >> (64 - bits)}
		v.SetInt(edges[rng.Intn(len(edges))])
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		bits := v.Type().Bits()
		edges := []uint64{0, 1, 127, 128, math.MaxUint64 >> (64 - bits), rng.Uint64() >> (64 - bits)}
		v.SetUint(edges[rng.Intn(len(edges))])
	case reflect.Float32, reflect.Float64:
		edges := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
			math.MaxFloat32, math.Inf(-1), rng.NormFloat64()}
		if v.Kind() == reflect.Float32 { // only values a float32 holds exactly
			edges = []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat32, math.MaxFloat32, float64(float32(rng.NormFloat64()))}
		}
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

// sealed puts the checksum decodeRecord wants in front of a payload.
func sealed(payload []byte) []byte {
	return append(binary.LittleEndian.AppendUint32(nil, crc32.ChecksumIEEE(payload)), payload...)
}

// FuzzDecodeRecord feeds decodeRecord arbitrary bytes twice: as a record
// file, where almost every mutation dies at the checksum as it should, and
// as a payload under a correct checksum, where it reaches the walker. A
// decode must never panic, must not allocate more than a small multiple of
// its input whatever lengths the input claims, and whatever it accepts must
// survive its own round trip.
func FuzzDecodeRecord(f *testing.F) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 4; i++ {
		rec := randRecord(rng)
		b := encodeRecord(&rec)
		f.Add(b)
		f.Add(b[4:])
		for _, n := range []int{0, 3, 4, 5, len(b) / 3, len(b) / 2, len(b) - 1} {
			f.Add(b[:n])
			f.Add(b[4:][:max(n-4, 0)])
		}
	}
	f.Add(binary.AppendUvarint(nil, math.MaxUint64))               // a key 2^64 bytes long
	f.Add(append([]byte{0, 0}, bytes.Repeat([]byte{0xff}, 64)...)) // a length that overflows a varint
	f.Fuzz(func(t *testing.T, in []byte) {
		for _, b := range [][]byte{in, sealed(in)} {
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			var rec record
			err := decodeRecord(b, &rec)
			runtime.ReadMemStats(&ms1)
			// 24 bytes of slice header per input byte is the worst the format
			// allows; the constant covers the record itself and the runtime's
			// own noise. A length taken at its word would be orders beyond.
			if got, limit := ms1.TotalAlloc-ms0.TotalAlloc, uint64(32*len(b)+64<<10); got > limit {
				t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(b), got, limit)
			}
			if err != nil {
				continue
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
			A int64
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
