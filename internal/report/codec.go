package report

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"reflect"
	"strings"
	"sync"
	"unsafe"
)

// The store's record format. A record file is
//
//	crc32 (IEEE, 4 bytes little-endian) | payload
//
// and the payload is record{Key, Salt, Result} written positionally: no
// names, no tags, every value in declaration order. A uint64 is a uvarint,
// an int a zig-zag varint, a float64 its eight IEEE-754 bytes
// little-endian, a string or slice a uvarint length and then its bytes or
// elements, an array its elements and a struct its fields; a record holds
// no other kind. A length can never exceed the bytes that remain, so a
// decode allocates no more than a small multiple of its input whatever the
// input claims.
//
// The layout is read off the Go types once, when the package is
// initialised, not per value: one walk over record's type renders its
// fingerprint and compiles its plan, a flat list of steps that each encode
// or decode one value through a pointer at its offset. A field of those
// kinds added to Result (or to wpu.Stats, mem.L1Stats, ... beneath it)
// joins the record without further code. Nothing in a record says which
// layout wrote it: the fingerprint is digested into the store's version
// salt instead, so a record written under any other layout has a different
// file name and is never read at all.

// errRecord is every way a record can fail to decode; Load does not care
// which, it removes the file.
var errRecord = errors.New("report: corrupt store record")

// recordShape is the layout fingerprint of record and recordPlan its codec.
// Both come from the walk when the package is initialised, so a field the
// codec cannot carry stops every program that links the store at start-up
// instead of at its first Save.
var recordShape, recordPlan = compile(reflect.TypeOf(record{}))

// resultPlan is recordPlan without its first two steps, Key's and Salt's,
// which Load compares in place instead of decoding.
var resultPlan = func() []step {
	if recordPlan[0].off != unsafe.Offsetof(record{}.Key) || recordPlan[1].off != unsafe.Offsetof(record{}.Salt) {
		panic("report: record must begin with Key and Salt")
	}
	return recordPlan[2:]
}()

// A codec encodes or decodes the value p points to; dec reports false on
// bytes that are not one.
type codec struct {
	enc func(b []byte, p unsafe.Pointer) []byte
	dec func(b []byte, p unsafe.Pointer) ([]byte, bool)
}

// A step is the codec of the value off bytes into the one its plan
// describes. Arrays and structs have no step of their own, only their
// elements' and fields', so a plan is flat and a record one loop.
type step struct {
	off uintptr
	codec
}

// scalars holds the codecs of every kind that is one value on the wire:
// the four a record holds. compile panics on any other.
var scalars = map[reflect.Kind]scalar{
	reflect.String:  stringScalar,
	reflect.Int:     intScalar,
	reflect.Uint64:  uint64Scalar,
	reflect.Float64: float64Scalar,
}

// compile walks t once. shape renders everything about t the codec depends
// on — kinds, array lengths, field names and order, recursively — and plan
// is its codec. It panics on a type the codec cannot carry (a bool, a
// narrow integer or any other kind scalars lacks, maps, pointers,
// interfaces, unexported fields). Type names are left out: renaming a type
// moves no byte of its records.
func compile(t reflect.Type) (shape string, plan []step) {
	var sb strings.Builder
	plan = compileAt(&sb, t, 0, nil)
	return sb.String(), plan
}

// compileAt appends to plan the steps of a t at offset off.
func compileAt(sb *strings.Builder, t reflect.Type, off uintptr, plan []step) []step {
	if s, ok := scalars[t.Kind()]; ok {
		sb.WriteString(t.Kind().String())
		return append(plan, step{off, s.one})
	}
	switch t.Kind() {
	case reflect.Slice:
		sb.WriteString("[]")
		elem := compileAt(sb, t.Elem(), 0, nil)
		if s, ok := scalars[t.Elem().Kind()]; ok {
			return append(plan, step{off, s.slice})
		}
		return append(plan, step{off, sliceOf(t, elem)})
	case reflect.Array:
		fmt.Fprintf(sb, "[%d]", t.Len())
		elem := compileAt(sb, t.Elem(), 0, nil)
		for i := 0; i < t.Len(); i++ {
			for _, s := range elem {
				plan = append(plan, step{off + uintptr(i)*t.Elem().Size() + s.off, s.codec})
			}
		}
		return plan
	case reflect.Struct:
		sb.WriteString("struct{")
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				panic(fmt.Sprintf("report: store codec cannot carry unexported field %s.%s", t, f.Name))
			}
			sb.WriteString(f.Name)
			sb.WriteByte(' ')
			plan = compileAt(sb, f.Type, off+f.Offset, plan)
			sb.WriteByte(';')
		}
		sb.WriteByte('}')
		return plan
	}
	panic(fmt.Sprintf("report: store codec cannot carry %s (kind %s)", t, t.Kind()))
}

// encode appends the value p points to, laid out by plan.
func encode(b []byte, p unsafe.Pointer, plan []step) []byte {
	for i := range plan {
		b = plan[i].enc(b, unsafe.Add(p, plan[i].off))
	}
	return b
}

// decode fills the value p points to from the front of b and returns what
// is left; false if b does not begin with one.
func decode(b []byte, p unsafe.Pointer, plan []step) ([]byte, bool) {
	ok := true
	for i := range plan {
		if b, ok = plan[i].dec(b, unsafe.Add(p, plan[i].off)); !ok {
			return nil, false
		}
	}
	return b, true
}

// encodeRecord renders rec as a record file: checksum, then payload.
func encodeRecord(rec *record) []byte {
	b := encode(make([]byte, 4, 1024), unsafe.Pointer(rec), recordPlan)
	binary.LittleEndian.PutUint32(b, crc32.ChecksumIEEE(b[4:]))
	return b
}

// decodeRecord is the inverse of encodeRecord. It fails on a short file, a
// checksum mismatch, any value that does not decode and trailing bytes.
func decodeRecord(b []byte, rec *record) error {
	if !checksummed(b) {
		return errRecord
	}
	if rest, ok := decode(b[4:], unsafe.Pointer(rec), recordPlan); !ok || len(rest) != 0 {
		return errRecord
	}
	return nil
}

// scratch holds the records encodeResult and decodeResult work on. A record
// passes through the plan's closures, so a local one would escape: an
// allocation the size of a record on every Save and Load.
var scratch = sync.Pool{New: func() any { return new(record) }}

// encodeResult is encodeRecord of record{key, salt, *r} for a Save.
func encodeResult(key, salt string, r *Result) []byte {
	rec := scratch.Get().(*record)
	*rec = record{key, salt, *r}
	b := encodeRecord(rec)
	*rec = record{} // the pool keeps no caller's strings or slices alive
	scratch.Put(rec)
	return b
}

// decodeResult is decodeRecord for a Load of key under salt: it compares
// the record's Key and Salt with them inside b, without building strings,
// and decodes only the Result, into *r. It accepts exactly the records
// decodeRecord does whose Key and Salt are key and salt.
func decodeResult(b []byte, key, salt string, r *Result) bool {
	if !checksummed(b) {
		return false
	}
	b, ok := matchString(b[4:], key)
	if ok {
		b, ok = matchString(b, salt)
	}
	if !ok {
		return false
	}
	rec := scratch.Get().(*record)
	b, ok = decode(b, unsafe.Pointer(rec), resultPlan)
	if ok = ok && len(b) == 0; ok {
		*r = rec.Result
	}
	rec.Result = Result{} // the pool keeps no caller's strings or slices alive
	scratch.Put(rec)
	return ok
}

func checksummed(b []byte) bool {
	return len(b) >= 4 && crc32.ChecksumIEEE(b[4:]) == binary.LittleEndian.Uint32(b)
}

// matchString reads a string off the front of b and reports whether it is s.
func matchString(b []byte, s string) ([]byte, bool) {
	b, n, ok := decodeLen(b)
	if !ok || string(b[:n]) != s {
		return nil, false
	}
	return b[n:], true
}

// decodeLen reads a length prefix and refuses one the rest of the input
// could not back with at least a byte per element.
func decodeLen(b []byte) ([]byte, int, bool) {
	x, n := binary.Uvarint(b)
	if n <= 0 || x > uint64(len(b)-n) {
		return nil, 0, false
	}
	return b[n:], int(x), true
}

// A scalar is the codecs of one kind that is one value on the wire: of a
// value, and of a slice of them. The slice codec loops over the elements
// itself, so the rows of Stats.ThreadMisses, most of a record, decode
// without a trip through the plan per element and allocate as make does.
type scalar struct{ one, slice codec }

// scalarOf builds a scalar from how to append one T and how to read one:
// read returns the value and the bytes it took, 0 or less if b does not
// begin with one (binary.Uvarint's convention).
func scalarOf[T any](app func([]byte, T) []byte, read func([]byte) (T, int)) scalar {
	return scalar{
		one: codec{
			func(b []byte, p unsafe.Pointer) []byte { return app(b, *(*T)(p)) },
			func(b []byte, p unsafe.Pointer) ([]byte, bool) {
				v, n := read(b)
				if n <= 0 {
					return nil, false
				}
				*(*T)(p) = v
				return b[n:], true
			},
		},
		slice: codec{
			func(b []byte, p unsafe.Pointer) []byte {
				s := *(*[]T)(p)
				b = binary.AppendUvarint(b, uint64(len(s)))
				for _, v := range s {
					b = app(b, v)
				}
				return b
			},
			func(b []byte, p unsafe.Pointer) ([]byte, bool) {
				b, n, ok := decodeLen(b)
				if !ok {
					return nil, false
				}
				var s []T // an empty slice decodes nil
				if n > 0 {
					s = make([]T, n)
				}
				for i := range s {
					v, m := read(b)
					if m <= 0 {
						return nil, false
					}
					s[i], b = v, b[m:]
				}
				*(*[]T)(p) = s
				return b, true
			},
		},
	}
}

var stringScalar = scalarOf(
	func(b []byte, s string) []byte { return append(binary.AppendUvarint(b, uint64(len(s))), s...) },
	func(b []byte) (string, int) {
		rest, n, ok := decodeLen(b)
		if !ok {
			return "", 0
		}
		return string(rest[:n]), len(b) - len(rest) + n // a copy: Load's buffer is reused
	})

// intScalar carries an int as a zig-zag varint; one that overflows int
// does not decode.
var intScalar = scalarOf(
	func(b []byte, v int) []byte { return binary.AppendVarint(b, int64(v)) },
	func(b []byte) (int, int) {
		x, n := binary.Varint(b)
		if int64(int(x)) != x {
			return 0, 0
		}
		return int(x), n
	})

var uint64Scalar = scalarOf(binary.AppendUvarint, binary.Uvarint)

var float64Scalar = scalarOf(
	func(b []byte, v float64) []byte { return binary.LittleEndian.AppendUint64(b, math.Float64bits(v)) },
	func(b []byte) (float64, int) {
		if len(b) < 8 {
			return 0, 0
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(b)), 8
	})

// sliceHeader is the layout of every Go slice.
type sliceHeader struct {
	data     unsafe.Pointer
	len, cap int
}

// sliceOf is the codec of slice type t whose elements elem lays out.
func sliceOf(t reflect.Type, elem []step) codec {
	size := t.Elem().Size()
	return codec{
		func(b []byte, p unsafe.Pointer) []byte {
			s := (*sliceHeader)(p)
			b = binary.AppendUvarint(b, uint64(s.len))
			for i := 0; i < s.len; i++ {
				b = encode(b, unsafe.Add(s.data, uintptr(i)*size), elem)
			}
			return b
		},
		func(b []byte, p unsafe.Pointer) ([]byte, bool) {
			b, n, ok := decodeLen(b)
			if !ok {
				return nil, false
			}
			s := (*sliceHeader)(p)
			*s = sliceHeader{} // an empty slice decodes nil, and no target's old elements are reused
			if n > 0 {
				// Allocates the elements only. Go has no other way to
				// allocate a type known only at run time.
				reflect.NewAt(t, p).Elem().Grow(n)
				s.len = n
			}
			for i := 0; i < n; i++ {
				if b, ok = decode(b, unsafe.Add(s.data, uintptr(i)*size), elem); !ok {
					return nil, false
				}
			}
			return b, true
		},
	}
}
