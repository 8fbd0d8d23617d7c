package report

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/wpu"
)

// TestDefaultKnobsKeyPinned holds one cache key as a literal: struct tags,
// the knob table and the text form of Dist must not move the keys existing
// stores were written under.
func TestDefaultKnobsKeyPinned(t *testing.T) {
	const want = `Filter|report.Knobs{WPUs:4, Width:16, Warps:4, Slots:0, WST:16, L1KB:32, L1Assoc:8, L2KB:4096, L2Lat:30, Scheme:"DWS.ReviveSplit", Dist:0, Scale:0, NoWaitMerge:false, NoProgSched:false, NoMemHints:false, BranchThresh:0}`
	if got := DefaultKnobs(wpu.SchemeRevive).Key("Filter"); got != want {
		t.Errorf("default key moved:\n got %s\nwant %s", got, want)
	}
}

// TestKnobKeyMatchesGoSyntax holds the appended key to what fmt's %#v
// prints, over random vectors: integer extremes, negative values and
// strings that need quoting (a NUL, a newline, non-ASCII).
func TestKnobKeyMatchesGoSyntax(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 20000; i++ {
		var k Knobs
		fillRandom(rng, reflect.ValueOf(&k).Elem())
		bench := []string{"KMeans", "", "a|b", "\"q\""}[i%4]
		if got, want := k.key(bench), fmt.Sprintf("%s|%#v", bench, k); got != want {
			t.Fatalf("key differs from %%#v:\n got %s\nwant %s", got, want)
		}
	}
}

// goStringKnob has a GoString method, which %#v would call.
type goStringKnob int

func (goStringKnob) GoString() string { return "knob" }

// formatKnob has a Format method, which %#v would call.
type formatKnob bool

func (formatKnob) Format(fmt.State, rune) {}

// TestKnobKeyRefusesWhatGoSyntaxRendersOtherwise: the key renderer panics
// on a field it does not render exactly as %#v does, as the record codec
// does on one it cannot carry, so for Knobs that is at process start.
func TestKnobKeyRefusesWhatGoSyntaxRendersOtherwise(t *testing.T) {
	for name, typ := range map[string]any{
		"float":        struct{ F float64 }{},
		"unsigned":     struct{ U uint }{},
		"int8":         struct{ I int8 }{},
		"struct":       struct{ S struct{ A int } }{},
		"GoString":     struct{ G goStringKnob }{},
		"Format":       struct{ F formatKnob }{},
		"not a struct": 0,
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("goSyntaxOf accepted a %s", name)
				}
			}()
			goSyntaxOf(reflect.TypeOf(typ))
		}()
	}
}

// TestDefaultKnobsAreTable3 ties two of the places Table 3 is written down:
// the knob table's defaults expand to sim.DefaultConfig (the third,
// program.DefaultCostParams, is tied in internal/sim). (DefaultConfig
// leaves the WST size to the WPU's own default, so compare the machines
// with the WPU's defaults filled in.)
func TestDefaultKnobsAreTable3(t *testing.T) {
	want := sim.DefaultConfig()
	want.WPU = wpu.SchemeConv.Apply(want.WPU).Normalized()
	got := DefaultKnobs(wpu.SchemeConv).Config()
	got.WPU = got.WPU.Normalized()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("DefaultKnobs(Conv).Config() = %+v, want sim.DefaultConfig() under Conv %+v", got, want)
	}
}

// TestKnobFlagDefaultsAreDefaultKnobs: dwsim without knob flags, a minimal
// job and DefaultKnobs are one Knobs value, so one cache key.
func TestKnobFlagDefaultsAreDefaultKnobs(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	k := KnobFlags(fs, wpu.SchemeRevive)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	want := DefaultKnobs(wpu.SchemeRevive)
	if *k != want {
		t.Errorf("flag defaults %#v, want DefaultKnobs %#v", *k, want)
	}
	if got := (Knobs{Scheme: wpu.SchemeRevive}).WithDefaults(); got != want {
		t.Errorf("empty vector defaults to %#v, want DefaultKnobs %#v", got, want)
	}
}

// TestKnobTableCoversKnobs walks Knobs by reflection: every integer field
// has exactly one table row, and the row's name is the field's JSON name,
// its dwsim flag and the name Set (dwsweep -param) knows it by. The other
// fields are handled by name. A field added without a row fails here.
func TestKnobTableCoversKnobs(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	flagged := KnobFlags(fs, wpu.SchemeConv)
	// The fields that are not integers with a row, and the flag each has.
	byName := map[string]string{"Scheme": "scheme", "Dist": "dist", "NoMemHints": "nomemhints",
		"NoWaitMerge": "", "NoProgSched": ""}

	var k Knobs
	rt := reflect.TypeOf(k)
	rows := 0
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		tag := f.Tag.Get("json")
		if tag == "" || strings.Contains(tag, ",") {
			t.Errorf("Knobs.%s: want a plain json name, got tag %q", f.Name, tag)
		}
		if flagName, ok := byName[f.Name]; ok {
			if flagName != "" && fs.Lookup(flagName) == nil {
				t.Errorf("Knobs.%s: no -%s flag", f.Name, flagName)
			}
			continue
		}
		addr, ok := reflect.ValueOf(&k).Elem().Field(i).Addr().Interface().(*int)
		if !ok {
			t.Errorf("Knobs.%s (%s) has no knobTable row and is not handled by name", f.Name, f.Type)
			continue
		}
		var found []knob
		for _, kn := range knobTable {
			if kn.field(&k) == addr {
				found = append(found, kn)
			}
		}
		if len(found) != 1 {
			t.Errorf("Knobs.%s has %d knobTable rows, want 1", f.Name, len(found))
			continue
		}
		rows++
		kn := found[0]
		if kn.name != tag {
			t.Errorf("Knobs.%s: row name %q, json name %q", f.Name, kn.name, tag)
		}
		if err := k.Set(tag, 7); err != nil || *addr != 7 {
			t.Errorf("Set(%q, 7): err %v, Knobs.%s = %d", tag, err, f.Name, *addr)
		}
		if kn.help == "" {
			if fs.Lookup(tag) != nil {
				t.Errorf("Knobs.%s: row without help text has a flag", f.Name)
			}
			continue
		}
		if err := fs.Set(tag, "9"); err != nil {
			t.Errorf("Knobs.%s: no -%s flag: %v", f.Name, tag, err)
		} else if got := *kn.field(flagged); got != 9 {
			t.Errorf("-%s 9 left Knobs.%s = %d", tag, f.Name, got)
		}
	}
	if rows != len(knobTable) {
		t.Errorf("%d knobTable rows, %d integer fields: a row names no field of its own", len(knobTable), rows)
	}
	if err := k.Set("bogus", 1); err == nil {
		t.Error("Set accepts an unknown knob")
	}
}

// randomKnobs draws a vector inside [min, cap] on every row, redrawing
// until the WPU accepts the width and slot count.
func randomKnobs(rng *rand.Rand) Knobs {
	for {
		k := Knobs{
			Scheme:      wpu.AllSchemes[rng.Intn(len(wpu.AllSchemes))],
			Dist:        sim.Distribution(rng.Intn(2)),
			NoWaitMerge: rng.Intn(2) == 0,
			NoProgSched: rng.Intn(2) == 0,
			NoMemHints:  rng.Intn(2) == 0,
		}
		for _, kn := range knobTable {
			*kn.field(&k) = kn.min + rng.Intn(kn.cap-kn.min+1)
		}
		if k.Validate() == nil {
			return k
		}
	}
}

// TestKnobsJSONRoundTrip: 1000 seeded random valid vectors survive
// Marshal → strict decode with value and cache key intact.
func TestKnobsJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 1000; i++ {
		k := randomKnobs(rng)
		if err := k.CheckCaps(); err != nil {
			t.Fatalf("random vector %#v: %v", k, err)
		}
		b, err := json.Marshal(k)
		if err != nil {
			t.Fatalf("marshal %#v: %v", k, err)
		}
		dec := json.NewDecoder(bytes.NewReader(b))
		dec.DisallowUnknownFields()
		var got Knobs
		if err := dec.Decode(&got); err != nil {
			t.Fatalf("decode %s: %v", b, err)
		}
		if got != k || got.Key("FFT") != k.Key("FFT") {
			t.Fatalf("round trip through %s:\nsent %#v\n got %#v", b, k, got)
		}
	}
}

// TestKnobsValidateFailures: every rejection names the knob at fault.
func TestKnobsValidateFailures(t *testing.T) {
	base := DefaultKnobs(wpu.SchemeRevive)
	if err := base.Validate(); err != nil {
		t.Fatalf("Table 3 is invalid: %v", err)
	}
	if err := base.CheckCaps(); err != nil {
		t.Fatalf("Table 3 is over the caps: %v", err)
	}
	type failure struct {
		name  string
		k     Knobs
		check func(Knobs) error
		names string // what the message must contain
	}
	var cases []failure
	for _, kn := range knobTable {
		low, high := base, base
		*kn.field(&low) = kn.min - 1
		*kn.field(&high) = kn.cap + 1
		cases = append(cases,
			failure{kn.name + " below minimum", low, Knobs.Validate, kn.name + " = "},
			failure{kn.name + " above cap", high, Knobs.CheckCaps, kn.name + " = "})
	}
	mod := func(f func(*Knobs)) Knobs {
		k := base
		f(&k)
		return k
	}
	cases = append(cases,
		failure{"unknown scheme", mod(func(k *Knobs) { k.Scheme = "DWS.Nope" }), Knobs.Validate, `scheme = "DWS.Nope"`},
		failure{"empty scheme", mod(func(k *Knobs) { k.Scheme = "" }), Knobs.Validate, `scheme = ""`},
		failure{"bad dist", mod(func(k *Knobs) { k.Dist = 2 }), Knobs.Validate, "dist = 2"},
		failure{"scale not a power of two", mod(func(k *Knobs) { k.Scale = 3 }), Knobs.Validate, "scale = 3 is not a power of two"},
		failure{"default slots past the ready mask", mod(func(k *Knobs) { k.Warps = 33 }), Knobs.Validate, "slots"},
		failure{"explicit slots past the ready mask", mod(func(k *Knobs) { k.Slots = 65 }), Knobs.Validate, "slots"},
		failure{"width past the lane mask", mod(func(k *Knobs) { k.Width = 65 }), Knobs.Validate, "width"},
	)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.check(tc.k)
			if err == nil {
				t.Fatalf("accepted %#v", tc.k)
			}
			if !strings.Contains(err.Error(), tc.names) {
				t.Errorf("message %q does not name the knob (%q)", err, tc.names)
			}
		})
	}
	if err := mod(func(k *Knobs) { k.Warps, k.Slots = 33, 64 }).Validate(); err != nil {
		t.Errorf("33 warps on 64 explicit slots rejected: %v", err)
	}
	for _, scale := range []int{0, 1, 2, 4, 8} {
		if err := mod(func(k *Knobs) { k.Scale = scale }).Validate(); err != nil {
			t.Errorf("scale %d rejected: %v", scale, err)
		}
	}
}
