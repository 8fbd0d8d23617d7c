// dwslint is the determinism linter for the simulator tree. It walks the
// given directories (default ./internal) and flags constructs that would
// break run-to-run reproducibility: wall-clock reads, the global math/rand
// source, side effects ordered by map iteration, and goroutines launched
// outside the approved executor files. See lint.go for the check catalogue.
//
// Usage:
//
//	dwslint [dirs...]    # default: ./internal
//
// Exit status 1 when any finding is reported.
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	flag.Parse()
	dirs := flag.Args()
	if len(dirs) == 0 {
		dirs = []string{"./internal"}
	}

	findings, err := LintDirs(dirs...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dwslint: %v\n", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Printf("dwslint: FAIL (%d finding(s))\n", len(findings))
		os.Exit(1)
	}
	fmt.Println("dwslint: ok")
}
