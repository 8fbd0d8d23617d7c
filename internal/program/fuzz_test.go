package program

import (
	"testing"

	"repro/internal/isa"
)

// fuzzOps is the opcode menu the fuzzer draws from: a representative mix of
// ALU, memory, control-flow, and synchronisation instructions.
var fuzzOps = []isa.Op{
	isa.NOP, isa.MOV, isa.MOVI, isa.ADD, isa.SUB, isa.MUL, isa.SLT,
	isa.ADDI, isa.SHLI, isa.LD, isa.ST, isa.BEQZ, isa.BNEZ, isa.JMP,
	isa.BARRIER, isa.HALT,
}

// decodeFuzzProgram interprets the fuzz input as a sequence of 3-byte
// instruction encodings. Branch targets are taken mod a window slightly
// larger than the program so out-of-range targets (which Build must reject
// cleanly) are also exercised. It stays apart from buildFuzzProgram
// (divfuzz_test.go): FuzzVerify needs what that generator rules out —
// backward and out-of-range targets, BARRIER and mid-program HALT — and
// needs the raw instructions, since a rejected Build is one of its cases;
// and its checked-in corpus pins this byte layout (target from b2, not b1).
func decodeFuzzProgram(data []byte) []isa.Inst {
	const maxInsts = 64
	n := len(data) / 3
	if n > maxInsts {
		n = maxInsts
	}
	code := make([]isa.Inst, 0, n+1)
	total := n + 1 // including the trailing HALT
	for i := 0; i < n; i++ {
		b0, b1, b2 := data[i*3], data[i*3+1], data[i*3+2]
		op := fuzzOps[int(b0)%len(fuzzOps)]
		in := isa.Inst{
			Op:   op,
			Dst:  isa.Reg(b1 % isa.NumRegs),
			SrcA: isa.Reg(b2 % isa.NumRegs),
			SrcB: isa.Reg((b1 >> 3) % isa.NumRegs),
		}
		switch op {
		case isa.BEQZ, isa.BNEZ, isa.JMP:
			// Mostly in-range, occasionally past the end.
			in.Target = int(b2) % (total + 2)
		case isa.MOVI, isa.ADDI, isa.SHLI, isa.LD, isa.ST:
			in.Imm = int64(int8(b2))
		}
		code = append(code, in)
	}
	code = append(code, isa.Inst{Op: isa.HALT})
	return code
}

// FuzzVerify feeds random small programs through Build and checks the
// verifier's contract: it never panics, a successful Build implies a
// program with zero error-severity findings and no unreachable blocks, and
// the two independent dominance algorithms agree, on dominators and on
// post-dominators.
func FuzzVerify(f *testing.F) {
	// Seeds: straight-line, a diamond, a loop, garbage.
	f.Add([]byte{2, 4, 1, 3, 5, 4})
	f.Add([]byte{11, 1, 3, 2, 4, 1, 13, 0, 5, 2, 5, 2, 0, 0, 0})
	f.Add([]byte{7, 4, 1, 12, 4, 0})
	f.Add([]byte{255, 255, 255, 0, 0, 0, 128, 64, 32})
	f.Fuzz(func(t *testing.T, data []byte) {
		code := decodeFuzzProgram(data)
		b := NewBuilder("fuzz")
		for _, in := range code {
			b.Emit(in)
		}
		p, err := b.Build()
		if err != nil {
			// Rejected programs are fine; the contract is a clean error,
			// not a panic (a panic fails the fuzz run on its own).
			return
		}

		// Build succeeded: the verifier must find no errors...
		for _, fd := range p.Verify() {
			if fd.Severity == Err {
				t.Fatalf("Build accepted a program Verify rejects: %v", fd)
			}
		}
		// ...every block must be reachable...
		for i, ok := range p.cfg.reach {
			if !ok {
				t.Fatalf("Build accepted unreachable block %d", i)
			}
		}
		// ...the independent dominance algorithms must agree, forward and
		// backward...
		checkDominance(t, p)
		// ...and every branch must have a re-convergence table entry.
		for pc, in := range p.Code {
			if !in.Op.IsBranch() {
				continue
			}
			if _, ok := p.ReconvPC(pc); !ok {
				t.Fatalf("branch @pc %d missing from the reconv table", pc)
			}
		}

		// Tamper with one instruction of a second build (built programs are
		// immutable once shared) and re-verify: findings are expected, panics
		// are not.
		if len(data) > 0 && len(p.Code) > 0 {
			q, err := b.Build()
			if err != nil {
				t.Fatalf("second build of an accepted program failed: %v", err)
			}
			pc := int(data[0]) % len(q.Code)
			q.Code[pc] = isa.Inst{Op: isa.Op(200 + data[0]%50), Dst: isa.Reg(data[0])}
			_ = q.Verify()
		}
	})
}
