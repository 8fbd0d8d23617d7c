package report

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"reflect"
	"strings"
)

// The store's record format. A record file is
//
//	crc32 (IEEE, 4 bytes little-endian) | payload
//
// and the payload is record{Key, Salt, Result} written positionally: no
// names, no tags, every value in declaration order. Unsigned integers are
// uvarints, signed ones zig-zag varints, a bool one byte (0 or 1), a float
// its eight IEEE-754 bytes little-endian, a string or slice a uvarint
// length and then its bytes or elements, an array its elements and a struct
// its fields. A length can never exceed the bytes that remain, so a decode
// allocates no more than a small multiple of its input whatever the input
// claims.
//
// The layout is read off the Go types by reflection, so a field added to
// Result (or to wpu.Stats, mem.L1Stats, ... beneath it) joins the record
// without further code. Nothing in a record says which layout wrote it:
// shapeOf digests the layout into the store's version salt instead, so a
// record written under any other layout has a different file name and is
// never read at all.

// errRecord is every way a record can fail to decode; Load does not care
// which, it removes the file.
var errRecord = errors.New("report: corrupt store record")

// recordShape is the layout fingerprint of record. It is computed when the
// package is initialised, so a field the codec cannot carry stops every
// program that links the store at start-up instead of at its first Save.
var recordShape = shapeOf(reflect.TypeOf(record{}))

// shapeOf renders everything about t the codec depends on — kinds, array
// lengths, field names and order, recursively — and panics on a type it
// cannot carry (maps, pointers, interfaces, unexported fields). Type names
// are left out: renaming a type moves no byte of its records.
func shapeOf(t reflect.Type) string {
	var sb strings.Builder
	writeShape(&sb, t)
	return sb.String()
}

func writeShape(sb *strings.Builder, t reflect.Type) {
	switch t.Kind() {
	case reflect.Bool, reflect.String,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64:
		sb.WriteString(t.Kind().String())
	case reflect.Slice:
		sb.WriteString("[]")
		writeShape(sb, t.Elem())
	case reflect.Array:
		fmt.Fprintf(sb, "[%d]", t.Len())
		writeShape(sb, t.Elem())
	case reflect.Struct:
		sb.WriteString("struct{")
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				panic(fmt.Sprintf("report: store codec cannot carry unexported field %s.%s", t, f.Name))
			}
			sb.WriteString(f.Name)
			sb.WriteByte(' ')
			writeShape(sb, f.Type)
			sb.WriteByte(';')
		}
		sb.WriteByte('}')
	default:
		panic(fmt.Sprintf("report: store codec cannot carry %s (kind %s)", t, t.Kind()))
	}
}

// encodeRecord renders rec as a record file: checksum, then payload.
func encodeRecord(rec *record) []byte {
	b := appendValue(make([]byte, 4, 1024), reflect.ValueOf(rec).Elem())
	binary.LittleEndian.PutUint32(b, crc32.ChecksumIEEE(b[4:]))
	return b
}

// decodeRecord is the inverse of encodeRecord. It fails on a short file, a
// checksum mismatch, any value that does not decode and trailing bytes.
func decodeRecord(b []byte, rec *record) error {
	if len(b) < 4 || crc32.ChecksumIEEE(b[4:]) != binary.LittleEndian.Uint32(b) {
		return errRecord
	}
	rest, err := decodeValue(b[4:], reflect.ValueOf(rec).Elem())
	if err != nil || len(rest) != 0 {
		return errRecord
	}
	return nil
}

// appendValue appends v in the positional form. The kinds are the ones
// writeShape admits; recordShape has already vetted the type.
func appendValue(b []byte, v reflect.Value) []byte {
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			return append(b, 1)
		}
		return append(b, 0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return binary.AppendVarint(b, v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return binary.AppendUvarint(b, v.Uint())
	case reflect.Float32, reflect.Float64:
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(v.Float()))
	case reflect.String:
		s := v.String()
		return append(binary.AppendUvarint(b, uint64(len(s))), s...)
	case reflect.Slice:
		b = binary.AppendUvarint(b, uint64(v.Len()))
		fallthrough
	case reflect.Array:
		for i, n := 0, v.Len(); i < n; i++ {
			b = appendValue(b, v.Index(i))
		}
		return b
	case reflect.Struct:
		for i, n := 0, v.NumField(); i < n; i++ {
			b = appendValue(b, v.Field(i))
		}
		return b
	}
	panic("report: store codec: " + v.Kind().String())
}

// decodeValue fills v from the front of b and returns what is left.
func decodeValue(b []byte, v reflect.Value) ([]byte, error) {
	switch v.Kind() {
	case reflect.Bool:
		if len(b) == 0 || b[0] > 1 {
			return nil, errRecord
		}
		v.SetBool(b[0] == 1)
		return b[1:], nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		x, n := binary.Varint(b)
		if n <= 0 || v.OverflowInt(x) {
			return nil, errRecord
		}
		v.SetInt(x)
		return b[n:], nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		x, n := binary.Uvarint(b)
		if n <= 0 || v.OverflowUint(x) {
			return nil, errRecord
		}
		v.SetUint(x)
		return b[n:], nil
	case reflect.Float32, reflect.Float64:
		if len(b) < 8 {
			return nil, errRecord
		}
		v.SetFloat(math.Float64frombits(binary.LittleEndian.Uint64(b)))
		return b[8:], nil
	case reflect.String:
		b, n, err := decodeLen(b)
		if err != nil {
			return nil, err
		}
		v.SetString(string(b[:n]))
		return b[n:], nil
	case reflect.Slice:
		b, n, err := decodeLen(b)
		if err != nil {
			return nil, err
		}
		v.Grow(n) // allocates the elements only; an empty slice stays nil
		v.SetLen(n)
		return decodeElems(b, v)
	case reflect.Array:
		return decodeElems(b, v)
	case reflect.Struct:
		var err error
		for i, n := 0, v.NumField(); i < n; i++ {
			if b, err = decodeValue(b, v.Field(i)); err != nil {
				return nil, err
			}
		}
		return b, nil
	}
	panic("report: store codec: " + v.Kind().String())
}

// decodeLen reads a length prefix and refuses one the rest of the input
// could not back with at least a byte per element.
func decodeLen(b []byte) ([]byte, int, error) {
	x, n := binary.Uvarint(b)
	if n <= 0 || x > uint64(len(b)-n) {
		return nil, 0, errRecord
	}
	return b[n:], int(x), nil
}

func decodeElems(b []byte, v reflect.Value) ([]byte, error) {
	var err error
	for i, n := 0, v.Len(); i < n; i++ {
		if b, err = decodeValue(b, v.Index(i)); err != nil {
			return nil, err
		}
	}
	return b, nil
}
