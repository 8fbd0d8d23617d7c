package report

import (
	"flag"
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"unsafe"

	"repro/internal/engine"
	"repro/internal/sim"
	"repro/internal/wpu"
)

// Knobs is one simulation point: the architectural parameters the
// evaluation sweeps. It is the only spelling of a point — the `knobs`
// object of a dwsimd job and of a run document (the JSON names below),
// the dwsim flags and the dwsweep -param values all carry these names,
// and every integer knob has one row in knobTable.
//
// Every field participates in the cache key (see key and
// TestKnobKeyCoversAllFields): adding a field here automatically extends
// the key, so distinct configurations can never alias in the run cache or
// the on-disk store. Field order and types are part of the key.
//
// Knobs must stay comparable: the session cache is a map keyed by
// Job{Bench, Knobs}, so a slice-, map- or func-typed knob fails the build.
// That is the intent — such a knob needs a decision about what "the same
// point" means before it can be cached at all.
type Knobs struct {
	WPUs    int              `json:"wpus"` // a job's 0 = the Table 3 default (4)
	Width   int              `json:"width"`
	Warps   int              `json:"warps"`
	Slots   int              `json:"slots"` // 0 = two per warp
	WST     int              `json:"wst"`
	L1KB    int              `json:"l1kb"`
	L1Assoc int              `json:"l1assoc"` // 0 = fully associative
	L2KB    int              `json:"l2kb"`
	L2Lat   int              `json:"l2lat"`
	Scheme  wpu.Scheme       `json:"scheme"`
	Dist    sim.Distribution `json:"dist"`  // thread-to-WPU mapping, "block" (default) or "interleave"
	Scale   int              `json:"scale"` // workload input-size multiplier (0 = 1)

	// Ablation switches (see the Ablation driver).
	NoWaitMerge  bool `json:"no_wait_merge"`
	NoProgSched  bool `json:"no_prog_sched"`
	NoMemHints   bool `json:"no_mem_hints"`  // ignore static memory-divergence hints (control arm)
	BranchThresh int  `json:"branch_thresh"` // 0 = default lazy threshold
}

// knob is one row of knobTable: all the program knows about one integer
// knob apart from where Config puts it in the machine.
type knob struct {
	name    string            // JSON name, dwsim flag and dwsweep -param value
	field   func(*Knobs) *int // the struct field
	def     int               // Table 3 default
	zeroDef bool              // a job that leaves it out, or says 0, means def
	min     int               // the least the simulator can build
	cap     int               // the most the public endpoint accepts
	help    string            // dwsim flag usage; "" for a knob without a flag
}

// knobTable declares every integer knob once. DefaultKnobs, WithDefaults,
// Validate, CheckCaps, KnobFlags and Set are all derived from it.
var knobTable = []knob{
	{"wpus", func(k *Knobs) *int { return &k.WPUs }, 4, true, 1, 64, "number of WPUs"},
	{"width", func(k *Knobs) *int { return &k.Width }, 16, true, 1, 64, "SIMD width"},
	{"warps", func(k *Knobs) *int { return &k.Warps }, 4, true, 1, 64, "warps per WPU"},
	{"slots", func(k *Knobs) *int { return &k.Slots }, 0, false, 0, 64, "scheduler slots (0 = 2x warps; at most 64)"},
	{"wst", func(k *Knobs) *int { return &k.WST }, 16, true, 1, 1024, "warp-split table entries"},
	{"l1kb", func(k *Knobs) *int { return &k.L1KB }, 32, true, 1, 1024, "L1 D-cache size in KB"},
	{"l1assoc", func(k *Knobs) *int { return &k.L1Assoc }, 8, true, 0, 64, "L1 D-cache associativity (0 = fully associative)"},
	{"l2kb", func(k *Knobs) *int { return &k.L2KB }, 4096, true, 1, 65536, "L2 size in KB"},
	{"l2lat", func(k *Knobs) *int { return &k.L2Lat }, 30, true, 0, 10000, "L2 lookup latency in cycles"},
	{"scale", func(k *Knobs) *int { return &k.Scale }, 0, false, 0, 8, "input-size multiplier, a power of two; 0 or 1 = unscaled (see workloads.AllWithScale)"},
	{"branch_thresh", func(k *Knobs) *int { return &k.BranchThresh }, 0, false, 0, 64, ""},
}

// table3 is the knob table's default column as a vector. It is built once:
// DefaultKnobs runs once per simulation in some callers and must not
// allocate.
var table3 = func() (k Knobs) {
	for _, kn := range knobTable {
		*kn.field(&k) = kn.def
	}
	return k
}()

// DefaultKnobs returns the Table 3 configuration under a given scheme.
func DefaultKnobs(s wpu.Scheme) Knobs {
	k := table3
	k.Scheme = s
	return k
}

// WithDefaults returns k with the Table 3 value in place of every zero
// knob for which a job's 0 (or an absent field) means "the default". The
// daemon applies it to each vector it decodes; the CLIs do not, so a flag
// set to 0 keeps its literal meaning (a fully associative L1, a free L2
// lookup).
func (k Knobs) WithDefaults() Knobs {
	for _, kn := range knobTable {
		if f := kn.field(&k); kn.zeroDef && *f == 0 {
			*f = kn.def
		}
	}
	return k
}

// Validate reports whether the simulator can build and run the point: no
// knob below its minimum, a power-of-two scale, a named scheme, a known
// distribution, and a width and scheduler-slot count the WPU accepts. Call
// it where a point enters the program (flag parsing, JSON decoding);
// Session.Run assumes it and Config panics on an unknown scheme.
func (k Knobs) Validate() error {
	for _, kn := range knobTable {
		if v := *kn.field(&k); v < kn.min {
			return fmt.Errorf("%s = %d is below the minimum, %d", kn.name, v, kn.min)
		}
	}
	if k.Scale&(k.Scale-1) != 0 {
		return fmt.Errorf("scale = %d is not a power of two (FFT and Merge cannot size their inputs by it)", k.Scale)
	}
	if !slices.Contains(wpu.AllSchemes, k.Scheme) {
		return fmt.Errorf("scheme = %q is not one of %v", k.Scheme, wpu.AllSchemes)
	}
	if _, err := k.Dist.MarshalText(); err != nil {
		return fmt.Errorf("dist = %d (want block or interleave)", int(k.Dist))
	}
	return k.Config().WPU.Validate()
}

// CheckCaps reports the first knob above what the public endpoint
// accepts. The caps are not about simulator correctness — it would happily
// build a 1 GiB L1 — but about dwsimd not taking jobs whose memory or run
// time is unbounded; the CLIs do not apply them.
func (k Knobs) CheckCaps() error {
	for _, kn := range knobTable {
		if v := *kn.field(&k); v > kn.cap {
			return fmt.Errorf("%s = %d is above the endpoint's cap, %d", kn.name, v, kn.cap)
		}
	}
	return nil
}

// KnobNames lists the integer knobs: the values dwsweep -param takes.
func KnobNames() []string {
	names := make([]string, len(knobTable))
	for i, kn := range knobTable {
		names[i] = kn.name
	}
	return names
}

// Set assigns v to the integer knob called name.
func (k *Knobs) Set(name string, v int) error {
	for _, kn := range knobTable {
		if kn.name == name {
			*kn.field(k) = v
			return nil
		}
	}
	return fmt.Errorf("unknown knob %q (want one of %s)", name, strings.Join(KnobNames(), ", "))
}

// KnobFlags registers one flag per knob on fs, defaulting to
// DefaultKnobs(scheme), and returns the vector the parsed flags fill in.
// Validate it after fs.Parse.
func KnobFlags(fs *flag.FlagSet, scheme wpu.Scheme) *Knobs {
	k := DefaultKnobs(scheme)
	fs.StringVar((*string)(&k.Scheme), "scheme", string(scheme), "scheme, one of "+fmt.Sprint(wpu.AllSchemes))
	for _, kn := range knobTable {
		if kn.help != "" {
			fs.IntVar(kn.field(&k), kn.name, kn.def, kn.help)
		}
	}
	fs.TextVar(&k.Dist, "dist", k.Dist, "thread-to-WPU mapping: block or interleave")
	fs.BoolVar(&k.NoMemHints, "nomemhints", false, "ignore the static memory-divergence hints (control arm; behaviour-identical by construction)")
	return &k
}

// Config expands the knobs into the full machine configuration they
// denote (Table 3 defaults plus these overrides).
func (k Knobs) Config() sim.Config {
	cfg := sim.DefaultConfig()
	if k.WPUs > 0 {
		cfg.WPUs = k.WPUs
	}
	cfg.WPU.Width = k.Width
	cfg.WPU.Warps = k.Warps
	cfg.WPU.SchedSlots = k.Slots
	cfg.WPU.WSTEntries = k.WST
	cfg.Hier.L1.SizeBytes = k.L1KB * 1024
	cfg.Hier.L1.Ways = k.L1Assoc
	cfg.Hier.L2.SizeBytes = k.L2KB * 1024
	cfg.Hier.L2.LookupLat = engine.Cycle(k.L2Lat)
	cfg.Dist = k.Dist
	cfg.WPU = k.Scheme.Apply(cfg.WPU)
	cfg.WPU.DisableWaitMerge = k.NoWaitMerge
	cfg.WPU.DisableProgSched = k.NoProgSched
	cfg.WPU.DisableMemHints = k.NoMemHints
	cfg.WPU.BranchLazyThreshold = k.BranchThresh
	return cfg
}

// key derives the string form of the cache key from the benchmark name
// plus every Knobs field: what the on-disk store digests into a file name
// and serve.ResultKey into a result address. (The session cache needs no
// string; it is keyed by the Job itself.) It is fmt.Sprintf("%s|%#v"),
// appended by knobsSyntax instead of formatted: every field by name, so a
// newly added knob joins the key without further code;
// TestKnobKeyCoversAllFields enforces that the rendering actually
// distinguishes each field. Struct tags and the text form of Dist do not
// show in %#v. A GoString or Format method on a field type would, and
// would move every key: the renderer refuses such a type at start-up, and
// TestKnobKeyMatchesGoSyntax holds it equal to %#v.
func (k Knobs) key(bench string) string {
	var buf [256]byte // a default key is ~210 bytes; the string is the one allocation
	b := append(append(buf[:0], bench...), '|')
	return string(knobsSyntax.append(b, unsafe.Pointer(&k)))
}

// knobsSyntax renders a Knobs as %#v does, its fields read off the type
// once.
var knobsSyntax = goSyntaxOf(reflect.TypeOf(Knobs{}))

// goSyntax appends a struct of bool, string and int fields the way fmt's
// %#v prints it: the type's name, then Name:value for each field.
type goSyntax struct {
	open   string // "report.Knobs{"
	fields []goField
}

type goField struct {
	label string // "Name:", after ", " from the second field on
	off   uintptr
	kind  reflect.Kind
}

var goStringer, formatter = reflect.TypeFor[fmt.GoStringer](), reflect.TypeFor[fmt.Formatter]()

// goSyntaxOf lays out t for goSyntax.append. It panics on a type it does
// not render exactly as %#v does: anything but a struct of bool, string
// and int fields (%#v prints unsigned integers in hex and floats by rules
// of their own), and a type with a GoString or Format method, which %#v
// would call instead.
func goSyntaxOf(t reflect.Type) goSyntax {
	if t.Kind() != reflect.Struct {
		panic(fmt.Sprintf("report: key renderer needs a struct, not %s", t))
	}
	mustPrintPlainly(t)
	gs := goSyntax{open: t.String() + "{"}
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		switch f.Type.Kind() {
		case reflect.Bool, reflect.String, reflect.Int:
		default:
			panic(fmt.Sprintf("report: key renderer renders bool, string and int fields, not %s.%s (kind %s)", t, f.Name, f.Type.Kind()))
		}
		mustPrintPlainly(f.Type)
		label := f.Name + ":"
		if i > 0 {
			label = ", " + label
		}
		gs.fields = append(gs.fields, goField{label, f.Offset, f.Type.Kind()})
	}
	return gs
}

// mustPrintPlainly panics if %#v would call a method of t instead of
// printing its value.
func mustPrintPlainly(t reflect.Type) {
	if p := reflect.PointerTo(t); p.Implements(goStringer) || p.Implements(formatter) {
		panic(fmt.Sprintf("report: key renderer cannot render %s: %%#v would call its GoString or Format method", t))
	}
}

// append appends the struct p points to; p must point to a value of the
// type gs was laid out for.
func (gs *goSyntax) append(b []byte, p unsafe.Pointer) []byte {
	b = append(b, gs.open...)
	for _, f := range gs.fields {
		b = append(b, f.label...)
		q := unsafe.Add(p, f.off)
		switch f.kind {
		case reflect.Bool:
			b = strconv.AppendBool(b, *(*bool)(q))
		case reflect.String:
			b = strconv.AppendQuote(b, *(*string)(q))
		case reflect.Int:
			b = strconv.AppendInt(b, int64(*(*int)(q)), 10)
		}
	}
	return append(b, '}')
}

// Key exposes the cache key for one point. The serve layer digests it
// into result keys, so a result computed by any server process for the
// same (benchmark, Knobs) point gets the same address.
func (k Knobs) Key(bench string) string { return k.key(bench) }
