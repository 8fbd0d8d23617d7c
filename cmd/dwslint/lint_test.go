package main

import (
	"bufio"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// expectedFindings parses the `// want <check>` markers out of a fixture.
// A bare `//dwslint:ignore` (no reason) is itself expected to produce a
// "directive" finding on its own line.
func expectedFindings(t *testing.T, path string) map[int]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[int]string{}
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if i := strings.Index(text, "// want "); i >= 0 {
			want[line] = strings.Fields(text[i+len("// want "):])[0]
		}
		if strings.TrimSpace(text) == "//dwslint:ignore" {
			want[line] = "directive"
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestBadFixture asserts every seeded violation is caught at the expected
// line with the expected check, and nothing else is reported.
func TestBadFixture(t *testing.T) {
	dir := filepath.Join("testdata", "src", "bad")
	want := expectedFindings(t, filepath.Join(dir, "bad.go"))
	if len(want) == 0 {
		t.Fatal("fixture has no // want markers")
	}

	findings, err := (&Linter{}).LintDirs(dir)
	if err != nil {
		t.Fatal(err)
	}

	got := map[int][]string{}
	for _, f := range findings {
		got[f.Pos.Line] = append(got[f.Pos.Line], f.Check)
	}
	for line, check := range want {
		found := false
		for _, c := range got[line] {
			if c == check {
				found = true
			}
		}
		if !found {
			t.Errorf("line %d: want a %q finding, got %v", line, check, got[line])
		}
	}
	for line, checks := range got {
		for _, c := range checks {
			if want[line] != c {
				t.Errorf("line %d: unexpected %q finding", line, c)
			}
		}
	}

	// Every check must be represented at least once in the fixture.
	for _, check := range []string{"wallclock", "rand", "maprange", "ptrmaprange", "goroutine", "directive"} {
		seen := false
		for _, c := range want {
			if c == check {
				seen = true
			}
		}
		if !seen {
			t.Errorf("fixture does not seed a %q violation", check)
		}
	}
}

// TestObsGuardFixture asserts the obsguard check catches every seeded
// unguarded emission in the hot-path fixture — and nothing else: the
// guarded, suppressed and trace-free variants must stay silent.
func TestObsGuardFixture(t *testing.T) {
	dir := filepath.Join("testdata", "src", "obsguard")
	want := expectedFindings(t, filepath.Join(dir, "internal", "wpu", "hot.go"))
	if len(want) == 0 {
		t.Fatal("fixture has no // want markers")
	}

	findings, err := (&Linter{}).LintDirs(dir)
	if err != nil {
		t.Fatal(err)
	}

	got := map[int][]string{}
	for _, f := range findings {
		got[f.Pos.Line] = append(got[f.Pos.Line], f.Check)
	}
	for line, check := range want {
		found := false
		for _, c := range got[line] {
			if c == check {
				found = true
			}
		}
		if !found {
			t.Errorf("line %d: want a %q finding, got %v", line, check, got[line])
		}
	}
	for line, checks := range got {
		for _, c := range checks {
			if want[line] != c {
				t.Errorf("line %d: unexpected %q finding", line, c)
			}
		}
	}
}

// TestExhaustiveSwitchFixture asserts the exhaustiveswitch check catches
// the seeded partial switches over the fixture's enum and label array —
// and nothing else: the exhaustive, defaulted, unrelated-string and
// suppressed variants must stay silent.
func TestExhaustiveSwitchFixture(t *testing.T) {
	dir := filepath.Join("testdata", "src", "exhaustive")
	want := expectedFindings(t, filepath.Join(dir, "exhaustive.go"))
	if len(want) == 0 {
		t.Fatal("fixture has no // want markers")
	}

	findings, err := (&Linter{}).LintDirs(dir)
	if err != nil {
		t.Fatal(err)
	}

	got := map[int][]string{}
	for _, f := range findings {
		got[f.Pos.Line] = append(got[f.Pos.Line], f.Check)
	}
	for line, check := range want {
		found := false
		for _, c := range got[line] {
			if c == check {
				found = true
			}
		}
		if !found {
			t.Errorf("line %d: want a %q finding, got %v", line, check, got[line])
		}
	}
	for line, checks := range got {
		for _, c := range checks {
			if want[line] != c {
				t.Errorf("line %d: unexpected %q finding", line, c)
			}
		}
	}
}

// checkScope lints dir and asserts that check fires in some file of it and
// in none whose path contains outside.
func checkScope(t *testing.T, check, dir, outside string) {
	t.Helper()
	findings, err := (&Linter{}).LintDirs(dir)
	if err != nil {
		t.Fatal(err)
	}
	inside := 0
	for _, f := range findings {
		switch {
		case f.Check != check:
		case strings.Contains(filepath.ToSlash(f.Pos.Filename), outside):
			t.Errorf("%s fired outside its scope: %s", check, f)
		default:
			inside++
		}
	}
	if inside == 0 {
		t.Errorf("%s found nothing in %s, inside its scope", check, dir)
	}
}

// TestExhaustiveSwitchScope asserts the check is driven by the guarded enum
// names: it fires on the fixture's partial EventKind and CycleBucketLabels
// switches, and not on the same partial switches in other/, over an enum
// and a label array it does not guard.
func TestExhaustiveSwitchScope(t *testing.T) {
	checkScope(t, "exhaustiveswitch", filepath.Join("testdata", "src", "exhaustive"), "/other/")
}

// TestObsGuardScope asserts the check only applies inside the hot-path
// packages: the unguarded emissions under internal/wpu are findings, the
// same ones under internal/other are not.
func TestObsGuardScope(t *testing.T) {
	checkScope(t, "obsguard", filepath.Join("testdata", "src", "obsguard"), "/internal/other/")
}

// TestCleanFixture asserts the approved patterns produce no findings.
func TestCleanFixture(t *testing.T) {
	findings, err := (&Linter{}).LintDirs(filepath.Join("testdata", "src", "clean"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("unexpected finding in clean fixture: %s", f)
	}
}

// TestRealTreeClean runs the linter over the actual simulator packages: the
// tree it gates in CI must itself be clean.
func TestRealTreeClean(t *testing.T) {
	findings, err := (&Linter{}).LintDirs(filepath.Join("..", "..", "internal"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("real tree: %s", f)
	}
}
