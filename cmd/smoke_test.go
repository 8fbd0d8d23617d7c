// Package cmd holds the smoke test of the command-line programs under it
// (`make cli-smoke`): bad input is one line on stderr and exit status 1,
// never a panic.
package cmd

import (
	"bufio"
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestCLISmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds five binaries")
	}
	progs := []string{"dwsim", "dwsweep", "dwstrace", "dwsreport", "dwsimd"}
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
	for _, tc := range [][]string{
		{"dwsim", "-bench", "Filter", "-nocache", "-scheme", "Nope"},
		{"dwsim", "-bench", "Filter", "-nocache", "-l1kb", "0"},
		{"dwsim", "-bench", "Filter", "-nocache", "-l2kb", "0"},
		{"dwsweep", "-bench", "Filter", "-nocache", "-param", "bogus"},
		{"dwsweep", "-bench", "Filter", "-nocache", "-scheme", "Nope"},
		{"dwsweep", "-bench", "Filter", "-nocache", "-alt", "Nope"},
		{"dwstrace", "-bench", "Filter", "-scheme", "Nope"},
		{"dwsreport", "-nocache", "-only", "nosuch"},
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
