// Package cmd holds the smoke test of the command-line programs under it
// (`make cli-smoke`): bad input is one line on stderr and exit status 1,
// never a panic.
package cmd

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestCLISmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds six binaries")
	}
	progs := []string{"dwsim", "dwsweep", "dwstrace", "dwsreport", "dwsimd", "dwsverify"}
	bin := t.TempDir()
	build := []string{"build", "-o", bin} // an existing directory: one binary per package
	for _, p := range progs {
		build = append(build, "./"+p)
	}
	if out, err := exec.Command("go", build...).CombinedOutput(); err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(build, " "), err, out)
	}

	// run returns the exit status and stderr of one invocation.
	run := func(t *testing.T, prog string, args ...string) (int, string) {
		var stderr bytes.Buffer
		cmd := exec.Command(filepath.Join(bin, prog), args...)
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if err != nil && !errors.As(err, &exit) {
			t.Fatalf("%s %v: %v", prog, args, err)
		}
		for _, bad := range []string{"panic:", "goroutine"} {
			if strings.Contains(stderr.String(), bad) {
				t.Errorf("%s %v: %q on stderr:\n%s", prog, args, bad, stderr.String())
			}
		}
		return cmd.ProcessState.ExitCode(), stderr.String()
	}

	for _, p := range progs {
		t.Run(p+" -h", func(t *testing.T) {
			if code, _ := run(t, p, "-h"); code != 0 && code != 2 {
				t.Errorf("exit status %d, want 0 or 2", code)
			}
		})
	}
	t.Run("dwsimd SIGTERM", func(t *testing.T) {
		cmd := exec.Command(filepath.Join(bin, "dwsimd"), "-addr", "127.0.0.1:0", "-nocache")
		stderr, err := cmd.StderrPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		defer cmd.Process.Kill() //nolint:errcheck // already exited is the good case
		line, err := bufio.NewReader(stderr).ReadString('\n')
		if err != nil || !strings.Contains(line, "serving on http://127.0.0.1:") {
			t.Fatalf("first stderr line %q, %v", line, err)
		}
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		// Wait closes the stderr pipe, so it needs no reader of its own.
		kill := time.AfterFunc(5*time.Second, func() { cmd.Process.Kill() }) //nolint:errcheck
		err = cmd.Wait()
		if !kill.Stop() {
			t.Fatal("dwsimd still running 5 s after SIGTERM")
		}
		if err != nil {
			t.Errorf("dwsimd after SIGTERM: %v, want exit status 0", err)
		}
	})
	// dwsweep is a row of report's sweeps table spelled as flags: with
	// Figure 16's axis and values it must print Figure 16's DWS/Conv column.
	// The two share a store, so the second also shows that they name the
	// same points.
	t.Run("dwsweep agrees with dwsreport -only 16", func(t *testing.T) {
		cache, stats := t.TempDir(), filepath.Join(t.TempDir(), "sweep.json")
		fig, err := exec.Command(filepath.Join(bin, "dwsreport"), "-cachedir", cache, "-only", "16").Output()
		if err != nil {
			t.Fatal(err)
		}
		var want []string
		_, rows, _ := strings.Cut(string(fig), "--\n") // the end of the header rule
		for _, line := range strings.Split(strings.TrimSpace(rows), "\n") {
			f := strings.Fields(line)
			want = append(want, f[len(f)-1])
		}
		out, err := exec.Command(filepath.Join(bin, "dwsweep"), "-cachedir", cache, "-stats", stats,
			"-param", "l2lat", "-values", "10,30,100,200,300").CombinedOutput()
		if err != nil {
			t.Fatalf("dwsweep: %v\n%s", err, out)
		}
		var doc struct {
			Rows  []struct{ Speedup float64 }
			Cache struct{ Misses int }
		}
		raw, err := os.ReadFile(stats)
		if err == nil {
			err = json.Unmarshal(raw, &doc)
		}
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, r := range doc.Rows {
			got = append(got, fmt.Sprintf("%.2f", r.Speedup))
		}
		if !slices.Equal(got, want) {
			t.Errorf("dwsweep speedups %v, Figure 16 DWS/Conv %v", got, want)
		}
		if doc.Cache.Misses != 0 {
			t.Errorf("dwsweep simulated %d points that dwsreport -only 16 had stored", doc.Cache.Misses)
		}
	})
	// A -cachedir that cannot be a directory is refused when the store is
	// opened, once, and the run goes on without it.
	t.Run("dwsim -cachedir a regular file", func(t *testing.T) {
		file := filepath.Join(t.TempDir(), "file")
		if err := os.WriteFile(file, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		code, stderr := run(t, "dwsim", "-bench", "Filter", "-cachedir", file)
		if code != 0 {
			t.Errorf("exit status %d, want 0", code)
		}
		if n := strings.Count(stderr, "\n"); n != 1 || !strings.Contains(stderr, "continuing without the on-disk store") {
			t.Errorf("want one line saying the run continues without the store on stderr, got:\n%s", stderr)
		}
	})
	for _, tc := range [][]string{
		{"dwsim", "-bench", "Filter", "-nocache", "-scheme", "Nope"},
		{"dwsim", "-bench", "Filter", "-nocache", "-l1kb", "0"},
		{"dwsim", "-bench", "Filter", "-nocache", "-l2kb", "0"},
		{"dwsim", "-bench", "Filter", "-nocache", "-wpus", "0"},
		{"dwsweep", "-bench", "Filter", "-nocache", "-param", "bogus"},
		{"dwsweep", "-bench", "Filter", "-nocache", "-scheme", "Nope"},
		{"dwsweep", "-bench", "Filter", "-nocache", "-alt", "Nope"},
		{"dwsweep", "-bench", "Nope", "-nocache"},
		{"dwsweep", "-bench", "Filter", "-nocache", "-values", "10,x"},
		{"dwstrace", "-bench", "Filter", "-scheme", "Nope"},
		{"dwstrace", "-bench", "Filter", "-wpu", "9"},
		{"dwstrace", "-bench", "Filter", "-format", "chrome"},
		{"dwstrace", "-bench", "Filter", "-format", "csv"},
		{"dwsim", "-bench", "Filter", "-nocache", "-timeline", "-", "-obsevery", "0"},
		{"dwsreport", "-nocache", "-only", "nosuch"},
		{"dwsverify", "-bench", "Nope"},
		{"dwsverify", "-scale", "3"},
		{"dwsim", "-bench", "FFT", "-nocache", "-scale", "3"},
		{"dwsimd", "-addr", "127.0.0.1:0", "-nocache", "-cachemb", "-1"},
		{"dwsimd", "-addr", "127.0.0.1:0", "-nocache", "-cachemb", "8796093022208"},
		{"dwsreport", "-nocache", "-only", "t1", "-j", "-1"},
	} {
		t.Run(strings.Join(tc, " "), func(t *testing.T) {
			code, stderr := run(t, tc[0], tc[1:]...)
			if code != 1 {
				t.Errorf("exit status %d, want 1", code)
			}
			if n := strings.Count(stderr, "\n"); n != 1 || !strings.HasPrefix(stderr, tc[0]+": ") {
				t.Errorf("want one line starting %q on stderr, got:\n%s", tc[0]+": ", stderr)
			}
		})
	}
}
