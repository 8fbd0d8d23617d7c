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

	"repro/internal/isa"
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
// keeps these recipes and Run stages one launch at a time.
type launchSpec struct {
	prog  *program.Program
	n     int
	setup func(tid int, r *isa.RegFile)
}

// Instance is a prepared workload bound to one system's memory.
type Instance struct {
	name   string
	steps  []launchSpec
	verify func() error
}

// Run executes every kernel launch in order, staging each launch's
// registers in the machine's reusable buffer.
func (in *Instance) Run(sys *sim.System) error {
	for i, st := range in.steps {
		if _, err := sys.RunKernel(st.prog, sys.StageThreads(st.n, st.setup)); err != nil {
			return fmt.Errorf("%s step %d: %w", in.name, i, err)
		}
	}
	return nil
}

// Verify checks the computed results against the host reference.
func (in *Instance) Verify() error {
	if err := in.verify(); err != nil {
		return fmt.Errorf("%s: %w", in.name, err)
	}
	return nil
}

// Plan is a benchmark's launch plan without a run: launch i runs Progs[i]
// on Threads[i] threads, and Kernels are the distinct programs by name, in
// first-launch order.
type Plan struct {
	Kernels, Progs []*program.Program
	Threads        []int
}

// Plan builds the benchmark on a throwaway machine of configuration cfg and
// returns its launch plan; nothing is simulated. It is the one enumerator
// behind the tools that inspect a workload's kernels instead of running
// them. Kernels are built with MustVerify, so a kernel that stops verifying
// is a panic under Build; Plan reports it as an error, so that a tool can
// go on to the next benchmark.
func (s Spec) Plan(cfg sim.Config) (pl Plan, err error) {
	defer func() {
		if r := recover(); r != nil {
			pl, err = Plan{}, fmt.Errorf("%s: %v", s.Name, r)
		}
	}()
	sys, err := sim.New(cfg)
	if err != nil {
		return Plan{}, err
	}
	inst, err := s.Build(sys)
	if err != nil {
		return Plan{}, fmt.Errorf("%s: %w", s.Name, err)
	}
	seen := make(map[string]bool)
	for _, st := range inst.steps {
		pl.Progs, pl.Threads = append(pl.Progs, st.prog), append(pl.Threads, st.n)
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
	steps := make([]Step, len(in.steps))
	for i, st := range in.steps {
		steps[i] = Step{Prog: st.prog, Threads: sim.Threads(st.n, st.setup)}
	}
	return steps
}

// Spec names a benchmark and knows how to instantiate it on a system.
type Spec struct {
	Name  string
	Desc  string
	Build func(sys *sim.System) (*Instance, error)
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
	if scale < 1 {
		scale = 1
	}
	bld := func(fn func(sys *sim.System, scale int) (*Instance, error)) func(*sim.System) (*Instance, error) {
		return func(sys *sim.System) (*Instance, error) { return fn(sys, scale) }
	}
	return []Spec{
		{Name: "FFT", Desc: "radix-2 fast Fourier transform (Splash2), butterfly computation", Build: bld(buildFFT)},
		{Name: "Filter", Desc: "3x3 edge-detection convolution over a grayscale image", Build: bld(buildFilter)},
		{Name: "HotSpot", Desc: "iterative thermal simulation PDE solver (Rodinia)", Build: bld(buildHotSpot)},
		{Name: "LU", Desc: "dense LU decomposition (Splash2)", Build: bld(buildLU)},
		{Name: "Merge", Desc: "bottom-up parallel merge sort", Build: bld(buildMerge)},
		{Name: "Short", Desc: "winning-path search, dynamic programming over rows", Build: bld(buildShort)},
		{Name: "KMeans", Desc: "unsupervised classification, map-reduce distance aggregation (MineBench)", Build: bld(buildKMeans)},
		{Name: "SVM", Desc: "support vector machine kernel computation (MineBench)", Build: bld(buildSVM)},
	}
}

// ByName returns the named benchmark spec at the default scale.
func ByName(name string) (Spec, error) { return ByNameScaled(name, 1) }

// ByNameScaled returns the named benchmark spec at the given scale.
func ByNameScaled(name string, scale int) (Spec, error) {
	for _, s := range AllWithScale(scale) {
		if s.Name == name {
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
func threadsFor(sys *sim.System, items int) int {
	cap := sys.ThreadCapacity()
	if items < cap {
		return items
	}
	return cap
}

// launch records one kernel launch of n threads with the standard ABI
// (R1 = tid, R2 = nthreads) plus workload registers from setup.
func launch(p *program.Program, n int, setup func(tid int, r *isa.RegFile)) launchSpec {
	return launchSpec{prog: p, n: n, setup: setup}
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
