package serve

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// FuzzJobDecode fuzzes the wire-format decoder with the three invariants
// the package comment promises: it never panics, every rejection is a
// *serve.Error mapping to a 4xx status, and every accepted request names a
// point and re-encodes losslessly. The checked-in corpus
// (testdata/fuzz/FuzzJobDecode) seeds the interesting shapes: valid runs,
// boundary knobs, and the strictness cases (unknown fields, the retired
// sweep shape, trailing documents, schema skew).
func FuzzJobDecode(f *testing.F) {
	f.Add([]byte(`{"schema_version":1,"bench":"Filter","knobs":{"scheme":"DWS.ReviveSplit"}}`))
	f.Add([]byte(`{"schema_version":1,"kind":"sweep","benches":["Filter","Merge"],"schemes":["Conv","Slip"]}`))
	f.Add([]byte(`{"schema_version":1,"bench":"FFT","knobs":{"scheme":"Conv","wpus":64,"l2kb":65536},"trace":true,"trace_every":1}`))
	f.Add([]byte(`{"schema_version":2,"bench":"Filter","knobs":{"scheme":"Conv"}}`))
	f.Add([]byte(`{"schema_version":1,"bench":"Filter","knobs":{"scheme":"Conv"},"extra":1}`))
	f.Add([]byte(`{"schema_version":1}{"schema_version":1}`))
	f.Add([]byte(`{"knobs":{"dist":"diagonal"}}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`nulltrailing`))
	f.Add([]byte(``))

	f.Fuzz(func(t *testing.T, data []byte) {
		req, derr := DecodeJobRequest(bytes.NewReader(data))
		if derr != nil {
			if derr.Status < 400 || derr.Status > 499 {
				t.Fatalf("rejection status %d is not a 4xx (%s)", derr.Status, derr.Msg)
			}
			if derr.Msg == "" {
				t.Fatal("rejection with empty message")
			}
			return
		}
		// Accepted requests must name a point and survive a
		// re-encode/re-decode cycle without changing meaning.
		if ResultKey(req.Bench, req.Knobs.Knobs()) == "" {
			t.Fatal("point without a result key")
		}
		enc, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("re-encoding accepted request: %v", err)
		}
		again, derr2 := DecodeJobRequest(strings.NewReader(string(enc)))
		if derr2 != nil {
			t.Fatalf("re-decoding accepted request %s (from %s): %d %s", enc, data, derr2.Status, derr2.Msg)
		}
		if *again != *req {
			t.Fatalf("re-decode changed the request: %s", enc)
		}
	})
}
