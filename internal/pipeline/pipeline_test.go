package pipeline

import (
	"testing"

	"exysim/internal/branch"
	"exysim/internal/isa"
	"exysim/internal/mem"
	"exysim/internal/trace"
)

func newCore(cfg Config) *Core {
	return New(cfg, branch.NewFrontend(branch.M1FrontendConfig()), mem.New(mem.M1MemConfig()))
}

// replay steps an instruction stream through the core the way every
// simulator replays a slice — pre-decoded, by index — and returns IPC.
func replay(c *Core, insts []isa.Inst) float64 {
	pd := (&trace.Slice{Insts: insts}).PreDecode()
	for i := range insts {
		c.StepDecoded(&insts[i], pd.Meta[i])
	}
	return c.Result().IPC
}

// runKernel feeds a straight-line block of instructions n times with a
// loop branch, returning IPC.
func runKernel(c *Core, body []isa.Inst, iters int) float64 {
	base := uint64(0x10000)
	var insts []isa.Inst
	for it := 0; it < iters; it++ {
		pc := base
		for i := range body {
			in := body[i]
			in.PC = pc
			pc += isa.InstBytes
			insts = append(insts, in)
		}
		insts = append(insts, isa.Inst{PC: pc, Class: isa.Branch, Branch: isa.BranchCond, Taken: it+1 < iters, Target: base})
	}
	return replay(c, insts)
}

func TestIndependentALUBoundByUnits(t *testing.T) {
	// Independent simple-ALU ops: M1 has 2S+1CD usable, so steady-state
	// IPC approaches ~3 (plus the branch on its own unit), capped by
	// width 4.
	body := make([]isa.Inst, 8)
	for i := range body {
		body[i] = isa.Inst{Class: isa.ALUSimple, Dst: uint8(1 + i), Src1: isa.RegNone, Src2: isa.RegNone}
	}
	ipc := runKernel(newCore(M1PipeConfig()), body, 2000)
	if ipc < 2.4 || ipc > 4.0 {
		t.Fatalf("independent ALU IPC %.2f outside [2.4, 4.0]", ipc)
	}
}

func TestSerialChainBoundByLatency(t *testing.T) {
	// A single dependence chain: one op per cycle regardless of width.
	body := make([]isa.Inst, 8)
	for i := range body {
		body[i] = isa.Inst{Class: isa.ALUSimple, Dst: 1, Src1: 1}
	}
	ipc := runKernel(newCore(M6PipeConfig()), body, 2000)
	if ipc > 1.35 {
		t.Fatalf("serial chain IPC %.2f should be ~1", ipc)
	}
}

func TestWidthCapsIndependentCode(t *testing.T) {
	mk := func(cfg Config) float64 {
		body := make([]isa.Inst, 16)
		for i := range body {
			// Spread across int and FP pipes so units don't bind.
			cls := isa.ALUSimple
			if i%3 == 0 {
				cls = isa.FPADD
			}
			body[i] = isa.Inst{Class: cls, Dst: uint8(1 + i), Src1: isa.RegNone, Src2: isa.RegNone}
		}
		return runKernel(newCore(cfg), body, 2000)
	}
	m1 := mk(M1PipeConfig())
	m6 := mk(M6PipeConfig())
	if m1 > 4.0 {
		t.Fatalf("M1 IPC %.2f exceeds width 4", m1)
	}
	if m6 <= m1 {
		t.Fatalf("8-wide M6 (%.2f) should beat 4-wide M1 (%.2f)", m6, m1)
	}
}

func TestZeroCycleMoves(t *testing.T) {
	// Moves on the critical dependence chain: without zero-cycle
	// elimination each mov adds a cycle to the chain; with it (M3+) the
	// chain runs at ALU speed.
	body := make([]isa.Inst, 8)
	for i := range body {
		if i%2 == 0 {
			body[i] = isa.Inst{Class: isa.Move, Dst: 2, Src1: 1}
		} else {
			body[i] = isa.Inst{Class: isa.ALUSimple, Dst: 1, Src1: 2}
		}
	}
	m2 := runKernel(newCore(M2PipeConfig()), body, 2000)
	m3 := runKernel(newCore(M3PipeConfig()), body, 2000)
	if m3 <= m2 {
		t.Fatalf("zero-cycle moves should help: M2 %.2f vs M3 %.2f", m2, m3)
	}
}

func TestDivOccupiesUnit(t *testing.T) {
	// Back-to-back divides serialize on the single CD unit.
	body := []isa.Inst{
		{Class: isa.ALUDiv, Dst: 1, Src1: isa.RegNone},
		{Class: isa.ALUDiv, Dst: 2, Src1: isa.RegNone},
	}
	ipc := runKernel(newCore(M1PipeConfig()), body, 1000)
	// Two divides per iteration at ~8-cycle occupancy each.
	if ipc > 0.5 {
		t.Fatalf("divide throughput %.2f too high", ipc)
	}
}

func TestROBLimitsMemoryOverlap(t *testing.T) {
	// Loads to distant lines: a larger ROB exposes more MLP. Compare
	// M1's 96-entry window against a hypothetical 16-entry one.
	small := M1PipeConfig()
	small.ROB = 16
	mk := func(cfg Config) float64 {
		c := newCore(cfg)
		body := make([]isa.Inst, 12)
		for i := range body {
			if i%4 == 0 {
				body[i] = isa.Inst{Class: isa.Load, Addr: uint64(0x4000_0000 + i*64), Size: 8, Dst: uint8(9 + i), Src1: isa.RegNone}
			} else {
				body[i] = isa.Inst{Class: isa.ALUSimple, Dst: 1, Src1: 1}
			}
		}
		// Unique addresses per iteration force misses.

		base := uint64(0x4000_0000)
		var insts []isa.Inst
		for it := 0; it < 400; it++ {
			pc := uint64(0x10000)
			for i := range body {
				in := body[i]
				in.PC = pc
				if in.Class == isa.Load {
					in.Addr = base
					base += 64 * 101 // stride past sets, unprefetchable-ish
				}
				pc += isa.InstBytes
				insts = append(insts, in)
			}
			insts = append(insts, isa.Inst{PC: pc, Class: isa.Branch, Branch: isa.BranchCond, Taken: it < 399, Target: 0x10000})
		}
		return replay(c, insts)
	}
	big := mk(M1PipeConfig())
	tiny := mk(small)
	if big <= tiny {
		t.Fatalf("ROB 96 (%.3f) should beat ROB 16 (%.3f) on miss-heavy code", big, tiny)
	}
}

func TestMispredictChargesRedirect(t *testing.T) {
	// Identical kernels except branch predictability: the random-branch
	// version must be slower.
	mk := func(predictable bool) float64 {
		var insts []isa.Inst
		for it := 0; it < 3000; it++ {
			taken := true
			if !predictable {
				taken = (it*2654435761)%100 < 50
			}
			insts = append(insts,
				isa.Inst{PC: 0x100, Class: isa.ALUSimple, Dst: 1, Src1: 1},
				isa.Inst{PC: 0x104, Class: isa.Branch, Branch: isa.BranchCond, Taken: taken, Target: 0x100})
			if !taken {
				insts = append(insts,
					isa.Inst{PC: 0x108, Class: isa.ALUSimple, Dst: 2, Src1: 2},
					isa.Inst{PC: 0x10C, Class: isa.Branch, Branch: isa.BranchUncond, Taken: true, Target: 0x100})
			}
		}
		return replay(newCore(M1PipeConfig()), insts)
	}
	good, bad := mk(true), mk(false)
	if bad >= good {
		t.Fatalf("mispredicting kernel (%.2f) should be slower than predictable (%.2f)", bad, good)
	}
}

func TestUnitKindCoverage(t *testing.T) {
	// Every class must map to at least one unit kind present in every
	// generation (otherwise earliestUnit silently unconstrains).
	for _, cfg := range Generations() {
		for i, kinds := range classUnits {
			cls := isa.Class(i)
			found := false
			for _, k := range kinds {
				if cfg.Units[k] > 0 {
					found = true
					break
				}
			}
			if !found && !(cls == isa.Move && cfg.ZeroCycleMove) {
				t.Fatalf("%s: class %v has no unit", cfg.Name, cls)
			}
		}
	}
}

func TestPRFLimitsWindow(t *testing.T) {
	// Long-latency FP producers with a tiny FP PRF: renaming must stall
	// once speculative FP results exhaust the file, even though the ROB
	// has room.
	small := M3PipeConfig()
	small.FPPRF = isa.NumArchRegs + 8
	big := M3PipeConfig()
	mk := func(cfg Config) float64 {
		c := newCore(cfg)
		body := make([]isa.Inst, 12)
		for i := range body {
			if i%2 == 0 {
				body[i] = isa.Inst{Class: isa.FPMAC, Dst: uint8(i), Src1: isa.RegNone, Src2: isa.RegNone}
			} else {
				body[i] = isa.Inst{Class: isa.ALUSimple, Dst: 1, Src1: isa.RegNone}
			}
		}
		return runKernel(newCoreFP(c), body, 1500)
	}
	a, b := mk(small), mk(big)
	if a >= b {
		t.Fatalf("8-entry speculative FP PRF (%.2f) should be slower than 160 (%.2f)", a, b)
	}
}

// newCoreFP is a passthrough used to keep runKernel's signature.
func newCoreFP(c *Core) *Core { return c }
