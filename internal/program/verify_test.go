package program

import (
	"strings"
	"testing"

	"repro/internal/isa"
)

// findingsWith filters findings by check name.
func findingsWith(fs []Finding, check string) []Finding {
	var out []Finding
	for _, f := range fs {
		if f.Check == check {
			out = append(out, f)
		}
	}
	return out
}

// TestDefUseErrOnUndefinedRead: with inputs declared, reading a register no
// path defines is a build-failing error.
func TestDefUseErrOnUndefinedRead(t *testing.T) {
	b := NewBuilder("undef-read")
	b.DeclareInputs(4)
	b.Add(5, 4, 6) // r6 never defined, not declared
	b.Halt()
	_, err := b.Build()
	if err == nil {
		t.Fatal("Build accepted a read of undefined r6")
	}
	if !strings.Contains(err.Error(), "def-use") || !strings.Contains(err.Error(), "r6") {
		t.Fatalf("error does not name the def-use violation: %v", err)
	}
}

// TestDefUseMustAnalysisJoins: a register defined on only one arm of a
// branch is still undefined at the join (intersection semantics).
func TestDefUseMustAnalysisJoins(t *testing.T) {
	b := NewBuilder("one-arm-def")
	b.DeclareInputs(4)
	b.Bnez(4, "skip")
	b.Movi(5, 7) // r5 defined only on the fallthrough arm
	b.Label("skip")
	b.Add(6, 5, 4) // read at the join
	b.Halt()
	_, err := b.Build()
	if err == nil {
		t.Fatal("Build accepted a join-point read of a one-arm definition")
	}
	if !strings.Contains(err.Error(), "r5") {
		t.Fatalf("error does not name r5: %v", err)
	}
}

// TestDefUseCheckGatedOnDeclaration: the same kernel without declarations
// builds fine — the check only fires when the author opted in.
func TestDefUseCheckGatedOnDeclaration(t *testing.T) {
	b := NewBuilder("undeclared")
	b.Add(5, 4, 6)
	b.Halt()
	if _, err := b.Build(); err != nil {
		t.Fatalf("undeclared kernel should build permissively: %v", err)
	}
}

// TestDeadDefWarn: a value written and never read is a warning — Build
// tolerates it, MustVerify rejects it.
func TestDeadDefWarn(t *testing.T) {
	b := NewBuilder("dead-def")
	b.Movi(4, 1) // never read
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatalf("warnings must not fail Build: %v", err)
	}
	fs := findingsWith(p.Verify(), "dead-def")
	if len(fs) != 1 || fs[0].Severity != Warn {
		t.Fatalf("want exactly one dead-def warning, got %v", fs)
	}
	if !strings.Contains(fs[0].Msg, "r4") {
		t.Fatalf("warning does not name r4: %v", fs[0])
	}
}

// TestR0WriteWarn: writes to the hardwired zero register are flagged.
func TestR0WriteWarn(t *testing.T) {
	b := NewBuilder("r0-write")
	b.Movi(0, 7)
	b.Halt()
	p := b.MustBuild()
	fs := findingsWith(p.Verify(), "dead-def")
	if len(fs) != 1 || !strings.Contains(fs[0].Msg, "r0") {
		t.Fatalf("want one r0-write warning, got %v", fs)
	}
}

// TestMustVerifyPanicsOnWarnings: MustVerify is the strict entry point the
// benchmark kernels use — warnings are fatal there.
func TestMustVerifyPanicsOnWarnings(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("MustVerify did not panic on a dead-def warning")
		}
		if !strings.Contains(r.(string), "dead-def") {
			t.Fatalf("panic does not name the finding: %v", r)
		}
	}()
	b := NewBuilder("strict")
	b.Movi(4, 1)
	b.Halt()
	b.MustVerify()
}

// TestBarrierDivergenceWarn: a barrier reachable on only one arm of a
// data-dependent branch can deadlock the warp (paper §3.4) — flagged as a
// warning.
func TestBarrierDivergenceWarn(t *testing.T) {
	b := NewBuilder("divergent-barrier")
	b.Ld(4, 1, 0) // load result: varying per thread
	b.Beqz(4, "skip")
	b.Barrier() // only threads with r4 != 0 arrive
	b.Label("skip")
	b.Halt()
	p := b.MustBuild()
	fs := findingsWith(p.Verify(), "barrier-divergence")
	if len(fs) != 1 || fs[0].Severity != Warn {
		t.Fatalf("want one barrier-divergence warning, got %v", fs)
	}
}

// TestBarrierUniformPredicateClean: branching over a barrier on a uniform
// (non-varying) predicate is legal and must not be flagged.
func TestBarrierUniformPredicateClean(t *testing.T) {
	b := NewBuilder("uniform-barrier")
	b.Movi(4, 1) // constant: warp-uniform
	b.Beqz(4, "skip")
	b.Barrier()
	b.Label("skip")
	b.Halt()
	p := b.MustBuild()
	if fs := findingsWith(p.Verify(), "barrier-divergence"); len(fs) != 0 {
		t.Fatalf("uniform-predicate barrier wrongly flagged: %v", fs)
	}
}

// TestBarrierAfterReconvergenceClean: a barrier placed at the branch's
// re-convergence point is safe — all threads reach it.
func TestBarrierAfterReconvergenceClean(t *testing.T) {
	b := NewBuilder("post-join-barrier")
	b.Ld(4, 1, 0)
	b.Beqz(4, "join")
	b.Movi(5, 1)
	b.Label("join")
	b.Barrier()
	b.Halt()
	p := b.MustBuild()
	if fs := findingsWith(p.Verify(), "barrier-divergence"); len(fs) != 0 {
		t.Fatalf("post-reconvergence barrier wrongly flagged: %v", fs)
	}
}

// TestBoundsErrOnOverflow: a tid-affine store past the declared region end
// is a build-failing error.
func TestBoundsErrOnOverflow(t *testing.T) {
	b := NewBuilder("oob-store")
	b.DeclareRegion(4, 8) // 8 words
	b.DeclareThreads(16)  // tids 0..15
	b.Shli(5, 1, 3)       // tid*8: byte offset of word tid
	b.Add(5, 5, 4)
	b.St(4, 5, 0) // word tid of an 8-word region, tids up to 15: overflow
	b.Halt()
	_, err := b.Build()
	if err == nil {
		t.Fatal("Build accepted a store past the region end")
	}
	if !strings.Contains(err.Error(), "mem-bounds") {
		t.Fatalf("error does not name mem-bounds: %v", err)
	}
}

// TestBoundsCleanWhenSized: the same kernel with a big-enough region.
func TestBoundsCleanWhenSized(t *testing.T) {
	b := NewBuilder("in-bounds-store")
	b.DeclareRegion(4, 16)
	b.DeclareThreads(16)
	b.Shli(5, 1, 3)
	b.Add(5, 5, 4)
	b.St(4, 5, 0)
	b.Halt()
	if _, err := b.Build(); err != nil {
		t.Fatalf("in-bounds store rejected: %v", err)
	}
}

// TestBoundsNegativeOffset: a negative constant offset below the region
// base is caught too.
func TestBoundsNegativeOffset(t *testing.T) {
	b := NewBuilder("underflow")
	b.DeclareRegion(4, 8)
	b.DeclareThreads(4)
	b.Ld(5, 4, -8)
	b.Halt()
	_, err := b.Build()
	if err == nil {
		t.Fatal("Build accepted a load below the region base")
	}
	if !strings.Contains(err.Error(), "mem-bounds") {
		t.Fatalf("error does not name mem-bounds: %v", err)
	}
}

// TestRegionDeclValidation: bad region declarations fail the build with a
// clear message rather than reaching the verifier.
func TestRegionDeclValidation(t *testing.T) {
	cases := []struct {
		name string
		prep func(b *Builder)
	}{
		{"region on r0", func(b *Builder) { b.DeclareRegion(0, 8) }},
		{"zero words", func(b *Builder) { b.DeclareRegion(4, 0) }},
		{"duplicate region", func(b *Builder) {
			b.DeclareRegion(4, 8)
			b.DeclareRegion(4, 8)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBuilder("bad-region")
			tc.prep(b)
			b.Halt()
			if _, err := b.Build(); err == nil {
				t.Fatal("Build accepted an invalid region declaration")
			}
		})
	}
}

// TestReconvergenceMismatchDetected: hand-tampering a built program's
// branch metadata is caught by the verifier's independent CHK
// recomputation.
func TestReconvergenceMismatchDetected(t *testing.T) {
	p := mustIfElse(t)
	for pc, bi := range p.branches {
		bi.IPdom = NoIPdom // lie: claim the paths never re-join
		p.branches[pc] = bi
	}
	fs := findingsWith(p.Verify(), "reconvergence")
	if len(fs) == 0 {
		t.Fatal("tampered re-convergence metadata not detected")
	}
	for _, f := range fs {
		if f.Severity != Err {
			t.Fatalf("reconvergence mismatch must be an error: %v", f)
		}
	}
}

// TestReconvPCMatchesBranchMetadata: the verified re-convergence table the
// WPU consumes agrees with the branch metadata on a healthy program.
func TestReconvPCMatchesBranchMetadata(t *testing.T) {
	p := mustIfElse(t)
	if !p.Verified() {
		t.Fatal("built program is not marked verified")
	}
	checked := 0
	for pc, in := range p.Code {
		if !in.Op.IsBranch() {
			continue
		}
		r, ok := p.ReconvPC(pc)
		if !ok {
			t.Fatalf("no reconv entry for branch @pc %d", pc)
		}
		bi, _ := p.Branch(pc)
		if r != bi.IPdom {
			t.Fatalf("branch @pc %d: reconv table %d != metadata ipdom %d", pc, r, bi.IPdom)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("kernel has no branches — test is vacuous")
	}
}

// TestVerifyCatchesUnreachableBlock: code after an unconditional jump that
// nothing targets is a hard error.
func TestVerifyCatchesUnreachableBlock(t *testing.T) {
	b := NewBuilder("unreachable")
	b.Jmp("end")
	b.Movi(4, 1) // unreachable
	b.Label("end")
	b.Halt()
	_, err := b.Build()
	if err == nil {
		t.Fatal("Build accepted unreachable code")
	}
	if !strings.Contains(err.Error(), "reachability") {
		t.Fatalf("error does not name reachability: %v", err)
	}
}

// TestVerifyOnTamperedCode: corrupting an instruction in a built program
// (simulating a bad raw-emit path) shows up in Verify's shape pass.
func TestVerifyOnTamperedCode(t *testing.T) {
	p := mustIfElse(t)
	p.Code[1] = isa.Inst{Op: isa.Op(250), Dst: 4} // invalid opcode
	fs := p.Verify()
	if len(findingsWith(fs, "cfg-shape")) == 0 {
		t.Fatalf("invalid opcode not caught by shape check: %v", fs)
	}
}

// TestFormatFindingsStable: formatting is deterministic and names every
// field a CI log reader needs.
func TestFormatFindingsStable(t *testing.T) {
	fs := []Finding{
		{Check: "dead-def", Severity: Warn, PC: 3, Block: 1, Msg: "r4 defined here is never read"},
		{Check: "def-use", Severity: Err, PC: 1, Block: 0, Msg: "r5 may be read before it is defined"},
	}
	sortFindings(fs)
	out := FormatFindings(fs)
	if !strings.Contains(out, "[error]") || !strings.Contains(out, "[warn]") {
		t.Fatalf("severities missing from output:\n%s", out)
	}
	if strings.Index(out, "def-use") > strings.Index(out, "dead-def") {
		t.Fatalf("findings not sorted by pc:\n%s", out)
	}
}

// mustIfElse builds a Program of its own of the if/else kernel used by the tamper
// tests.
func mustIfElse(t *testing.T) *Program {
	t.Helper()
	b := NewBuilder("ifelse-v")
	b.Bnez(1, "then")
	b.Addi(4, 0, 1)
	b.Jmp("join")
	b.Label("then")
	b.Addi(4, 0, 2)
	b.Label("join")
	b.Add(5, 4, 4)
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}
