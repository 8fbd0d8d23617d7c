// dwsverify runs the static program verifier (internal/program/verify.go)
// over every kernel of the benchmark suite and prints the findings. It is
// the CI gate for program well-formedness: the build fails if any kernel
// has a finding, warnings included.
//
// Usage:
//
//	dwsverify                 # verify all eight benchmarks
//	dwsverify -bench Merge    # one benchmark
//	dwsverify -scale 4        # verify at a scaled input size
//	dwsverify -disasm         # also print each kernel's disassembly
//	dwsverify -divergence     # also print each kernel's divergence report
//	dwsverify -memaccess      # also print each kernel's memory-access report
//	dwsverify -costmodel      # also print each kernel's trip counts and block executions
//
// Exit status 1 when any kernel fails to build or has verifier findings.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/program"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/workloads"
	"repro/internal/wpu"
)

func main() {
	var (
		benchName = flag.String("bench", "all", "benchmark: FFT, Filter, HotSpot, LU, Merge, Short, KMeans, SVM, or 'all'")
		scale     = flag.Int("scale", 1, "input-size multiplier (power of two; see workloads.AllWithScale)")
		showDis   = flag.Bool("disasm", false, "print each kernel's disassembly with block and branch metadata")
		showDiv   = flag.Bool("divergence", false, "print each kernel's divergence-analysis report (branch and access classes)")
		showMem   = flag.Bool("memaccess", false, "print each kernel's memory-access report (access classes, transaction and bank-conflict bounds)")
		showCost  = flag.Bool("costmodel", false, "print each kernel's static cost model (trip counts, block executions)")
	)
	flag.Parse()

	// The check dwsim and the daemon put a point through (-scale is a knob).
	knobs := report.DefaultKnobs(wpu.SchemeConv)
	knobs.Scale = *scale
	if err := knobs.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "dwsverify: %v\n", err)
		os.Exit(1)
	}
	specs := workloads.AllWithScale(*scale)
	if *benchName != "all" {
		spec, err := workloads.ByNameScaled(*benchName, *scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dwsverify: %v\n", err)
			os.Exit(1)
		}
		specs = []workloads.Spec{spec}
	}

	bad := 0
	kernels := 0
	for _, spec := range specs {
		pl, err := spec.Plan(sim.DefaultConfig())
		if err != nil {
			fmt.Printf("%-8s BUILD FAILED\n%v\n", spec.Name, err)
			bad++
			continue
		}
		sort.Slice(pl.Kernels, func(i, j int) bool { return pl.Kernels[i].Name < pl.Kernels[j].Name })
		for _, p := range pl.Kernels {
			kernels++
			findings := p.Verify()
			if len(findings) == 0 {
				fmt.Printf("%-8s %-16s ok  (%d insts, %d blocks, %d branches%s)\n",
					spec.Name, p.Name, len(p.Code), len(p.Blocks), p.NumBranches(), regionSummary(p))
			} else {
				bad++
				fmt.Printf("%-8s %-16s %d finding(s):\n%s",
					spec.Name, p.Name, len(findings), program.FormatFindings(findings))
			}
			if *showDis {
				fmt.Print(p.Disassemble())
			}
			if *showDiv {
				fmt.Print(p.DivergenceReport())
			}
			if *showMem {
				fmt.Print(p.MemAccessReport())
			}
			if *showCost {
				fmt.Print(p.CostModelReport())
			}
		}
	}
	if bad > 0 {
		fmt.Printf("dwsverify: FAIL (%d kernel(s)/benchmark(s) with findings)\n", bad)
		os.Exit(1)
	}
	fmt.Printf("dwsverify: ok (%d kernels verified clean)\n", kernels)
}

func regionSummary(p *program.Program) string {
	regions := p.Regions()
	if len(regions) == 0 {
		return ""
	}
	return fmt.Sprintf(", %d regions", len(regions))
}
