// Package workloads implements the paper's eight data-parallel benchmarks
// (Table 2) as real programs against the simulator's ISA: FFT, Filter,
// HotSpot, LU, Merge, Short, KMeans and SVM. Each is functionally verified
// against a host-side Go reference implementation after simulation.
//
// Input sizes are scaled down from the paper (which budgeted six-hour MV5
// runs) so a full experiment sweep finishes in minutes, while keeping each
// working set comfortably larger than the 32 KB L1 D-cache — the property
// that produces the paper's miss rates and memory-divergence frequencies.
// Every file documents its scaled input next to the paper's original.
package workloads

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/program"
	"repro/internal/sim"
)

// Step is one kernel launch: a program plus per-thread initial registers.
type Step struct {
	Prog    *program.Program
	Threads []isa.RegFile
}

// launchSpec is a Step before its register files exist: the thread count
// and the setup that fills each thread's workload registers. A launch plan
// runs to hundreds of kernels (LU: two per elimination step), so the plan
// keeps these recipes and Run stages one launch at a time. A setup writes
// constants only (addresses of the image, sizes): it captures no machine,
// so one plan serves every machine it is loaded on.
type launchSpec struct {
	prog  *program.Program
	n     int
	setup func(tid int, r *isa.RegFile)
}

// prepared is everything a benchmark derives from its scale and the
// machine's thread capacity alone: the launch plan with its kernels, the
// initial memory image, and the output regions a correct run leaves, from
// the host reference. It is built once per memo key (memo.go) and only
// read afterwards, by any number of machines at once.
type prepared struct {
	steps   []launchSpec
	image   *mem.Image
	outputs []output
}

// output is one region a run must leave equal to want, word for word under
// tol.
type output struct {
	name string
	addr uint64
	want []int64
	tol  tolerance
}

// tolerance is how an output word is compared with the reference.
type tolerance uint8

const (
	exact    tolerance = iota // integers: bit for bit
	relative                  // floats: almostEqual
	absolute                  // floats: within 1e-6
)

// equal reports whether got matches want under t.
func (t tolerance) equal(got, want int64) bool {
	g, w := math.Float64frombits(uint64(got)), math.Float64frombits(uint64(want))
	switch t {
	case relative:
		return almostEqual(g, w)
	case absolute:
		return math.Abs(g-w) <= 1e-6
	default:
		return got == want
	}
}

// word renders one word of a region compared under t.
func (t tolerance) word(v int64) string {
	if t == exact {
		return strconv.FormatInt(v, 10)
	}
	return strconv.FormatFloat(math.Float64frombits(uint64(v)), 'g', -1, 64)
}

// check compares every output word in m with the reference.
func (p *prepared) check(m *mem.Memory) error {
	for _, o := range p.outputs {
		for i, want := range o.want {
			if got := m.Read(o.addr + uint64(i)*8); !o.tol.equal(got, want) {
				return fmt.Errorf("%s[%d] = %s, want %s", o.name, i, o.tol.word(got), o.tol.word(want))
			}
		}
	}
	return nil
}

// bytes is the host memory the entry holds: image and reference (the plan
// and kernels are a few KB at any scale).
func (p *prepared) bytes() int {
	n := p.image.Bytes()
	for _, o := range p.outputs {
		n += 8 * len(o.want)
	}
	return n
}

// Instance is a prepared workload loaded into one system's memory.
type Instance struct {
	name string
	prep *prepared
	mem  *mem.Memory
}

// Run executes every kernel launch in order, staging each launch's
// registers in the machine's reusable buffer.
func (in *Instance) Run(sys *sim.System) error {
	for i, st := range in.prep.steps {
		if _, err := sys.RunKernel(st.prog, sys.StageThreads(st.n, st.setup)); err != nil {
			return fmt.Errorf("%s step %d: %w", in.name, i, err)
		}
	}
	return nil
}

// Verify compares every output word of the run with the host reference.
func (in *Instance) Verify() error {
	if err := in.prep.check(in.mem); err != nil {
		return fmt.Errorf("%s: %w", in.name, err)
	}
	return nil
}

// Plan is what a benchmark launches, without a run: Kernels are the
// distinct programs by name, in first-launch order.
type Plan struct {
	Kernels []*program.Program
}

// Plan returns the benchmark's launch plan on a machine of configuration
// cfg, which it checks as a machine's Reset does; no machine is built and
// nothing is simulated. It is the one enumerator behind the tools that
// inspect a workload's kernels instead of running them. Kernels are built
// with MustVerify, so a kernel that stops verifying is a panic under Build;
// Plan reports it as an error, so that a tool can go on to the next
// benchmark.
func (s Spec) Plan(cfg sim.Config) (pl Plan, err error) {
	defer func() {
		if r := recover(); r != nil {
			pl, err = Plan{}, fmt.Errorf("%s: %v", s.Name, r)
		}
	}()
	if err := cfg.Validate(); err != nil {
		return Plan{}, err
	}
	seen := make(map[string]bool)
	for _, st := range s.prepared(cfg.ThreadCapacity()).steps {
		if !seen[st.prog.Name] {
			seen[st.prog.Name] = true
			pl.Kernels = append(pl.Kernels, st.prog)
		}
	}
	return pl, nil
}

// Steps materialises the launch plan, register files included (for callers
// that launch the kernels themselves; Run never builds it).
func (in *Instance) Steps() []Step {
	steps := make([]Step, len(in.prep.steps))
	for i, st := range in.prep.steps {
		steps[i] = Step{Prog: st.prog, Threads: sim.Threads(st.n, st.setup)}
	}
	return steps
}

// Spec names a benchmark at one input scale.
type Spec struct {
	Name  string
	Desc  string
	scale int
	// prepare builds the benchmark for a machine of the given thread
	// capacity; it reads nothing else of the machine.
	prepare func(scale, capacity int) *prepared
}

// Build loads the benchmark into sys, whose memory must be fresh (as
// sim.New or Reset leave it): the prepared plan, image and reference come
// from the memo, and the image is copied into the machine's memory.
func (s Spec) Build(sys *sim.System) (*Instance, error) {
	p := s.prepared(sys.ThreadCapacity())
	if err := sys.Memory().Load(p.image); err != nil {
		return nil, fmt.Errorf("%s: %w", s.Name, err)
	}
	return &Instance{name: s.Name, prep: p, mem: sys.Memory()}, nil
}

// suite is the benchmark table in the paper's presentation order, at no
// scale; All, AllWithScale and ByNameScaled copy from it.
var suite = [...]Spec{
	{Name: "FFT", Desc: "radix-2 fast Fourier transform (Splash2), butterfly computation", prepare: prepareFFT},
	{Name: "Filter", Desc: "3x3 edge-detection convolution over a grayscale image", prepare: prepareFilter},
	{Name: "HotSpot", Desc: "iterative thermal simulation PDE solver (Rodinia)", prepare: prepareHotSpot},
	{Name: "LU", Desc: "dense LU decomposition (Splash2)", prepare: prepareLU},
	{Name: "Merge", Desc: "bottom-up parallel merge sort", prepare: prepareMerge},
	{Name: "Short", Desc: "winning-path search, dynamic programming over rows", prepare: prepareShort},
	{Name: "KMeans", Desc: "unsupervised classification, map-reduce distance aggregation (MineBench)", prepare: prepareKMeans},
	{Name: "SVM", Desc: "support vector machine kernel computation (MineBench)", prepare: prepareSVM},
}

// All returns the benchmark suite in the paper's presentation order, at the
// default (fast) input scale.
func All() []Spec { return AllWithScale(1) }

// AllWithScale returns the suite with each benchmark's primary input
// dimension multiplied by scale (a power of two; FFT and Merge require it).
// Scale 1 is the documented fast default; larger scales move the working
// sets toward the paper's original inputs at proportionally longer
// simulation times (Filter and HotSpot grow their image height; LU grows
// its matrix side by √scale steps, so its O(n³) work grows ≈ scale^1.5).
func AllWithScale(scale int) []Spec {
	specs := suite
	for i := range specs {
		specs[i].scale = max(scale, 1)
	}
	return specs[:]
}

// ByName returns the named benchmark spec at the default scale.
func ByName(name string) (Spec, error) { return ByNameScaled(name, 1) }

// ByNameScaled returns the named benchmark spec at the given scale.
func ByNameScaled(name string, scale int) (Spec, error) {
	for _, s := range suite {
		if s.Name == name {
			s.scale = max(scale, 1)
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("workloads: unknown benchmark %q", name)
}

// isqrt returns the integer square root, used by LU's side scaling.
func isqrt(n int) int {
	r := 1
	for (r+1)*(r+1) <= n {
		r++
	}
	return r
}

// threadsFor picks the launch width: every hardware thread when the work is
// large (threads stride over items), or one thread per item for small work.
func threadsFor(capacity, items int) int { return min(items, capacity) }

// launch records one kernel launch of n threads with the standard ABI
// (R1 = tid, R2 = nthreads) plus workload registers from setup.
func launch(p *program.Program, n int, setup func(tid int, r *isa.RegFile)) launchSpec {
	return launchSpec{prog: p, n: n, setup: setup}
}

// bits returns the words that hold vs, for an image region or a reference.
func bits(vs []float64) []int64 {
	out := make([]int64, len(vs))
	for i, v := range vs {
		out[i] = int64(math.Float64bits(v))
	}
	return out
}

func almostEqual(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	scale := 1.0
	if a > scale {
		scale = a
	} else if a < -1 {
		scale = -a
	}
	return d <= 1e-6*scale
}
