// Package isa defines the compact synthetic instruction set the simulator
// executes. The paper's cores run ARMv8; every quantity the paper measures
// is class-level (which execution port an instruction needs, its latency,
// whether it is a branch and of what kind, the memory address it touches),
// so the reproduction models instructions as typed records rather than
// encoded ARM instructions. The classes mirror Table I's unit taxonomy:
// "S" simple ALUs, "C" complex ALUs (mul/indirect-branch), "CD" complex
// ALUs with divide, "BR" direct-branch units, load/store/generic pipes,
// and FMAC/FMUL/FADD floating-point pipes.
package isa

import "fmt"

// Class identifies the execution resource class of an instruction.
type Class uint8

// Instruction classes. The comments give the Table I unit that serves them.
const (
	ALUSimple  Class = iota // S pipes: add/shift/logical
	ALUComplex              // C or CD pipes: multiply, indirect-branch address generation
	ALUDiv                  // CD pipes only: integer divide
	Move                    // register-register move; zero-cycle eligible on M3+
	Branch                  // BR pipes: direct branches (cond/uncond/call/ret)
	Load                    // L or G pipes
	Store                   // S(store) or G pipes
	FPMAC                   // FMAC pipes: fused multiply-add
	FPMUL                   // FMAC pipes: multiply
	FPADD                   // FMAC or FADD pipes: add/sub/convert
	numClasses
)

// NumClasses is the number of distinct instruction classes.
const NumClasses = int(numClasses)

// String returns the conventional mnemonic family for the class.
func (c Class) String() string {
	switch c {
	case ALUSimple:
		return "alu"
	case ALUComplex:
		return "mul"
	case ALUDiv:
		return "div"
	case Move:
		return "mov"
	case Branch:
		return "br"
	case Load:
		return "ld"
	case Store:
		return "st"
	case FPMAC:
		return "fmac"
	case FPMUL:
		return "fmul"
	case FPADD:
		return "fadd"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// IsMem reports whether the class accesses data memory.
func (c Class) IsMem() bool { return c == Load || c == Store }

// IsFP reports whether the class executes on the floating-point pipes and
// reads/writes the FP register file.
func (c Class) IsFP() bool { return c == FPMAC || c == FPMUL || c == FPADD }

// BranchKind refines Branch (and indirect flavours of ALUComplex targets)
// into the categories the branch-prediction hardware distinguishes.
type BranchKind uint8

// Branch kinds.
const (
	BranchNone     BranchKind = iota // not a branch
	BranchCond                       // conditional direct branch
	BranchUncond                     // unconditional direct branch
	BranchCall                       // direct call (pushes RAS)
	BranchReturn                     // function return (pops RAS)
	BranchIndirect                   // indirect jump through register
	BranchIndCall                    // indirect call (pushes RAS)
)

// String returns a short name for the branch kind.
func (k BranchKind) String() string {
	switch k {
	case BranchNone:
		return "none"
	case BranchCond:
		return "cond"
	case BranchUncond:
		return "uncond"
	case BranchCall:
		return "call"
	case BranchReturn:
		return "ret"
	case BranchIndirect:
		return "ind"
	case BranchIndCall:
		return "indcall"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// IsBranch reports whether the kind denotes any control transfer.
func (k BranchKind) IsBranch() bool { return k != BranchNone }

// IsIndirect reports whether the target comes from a register.
func (k BranchKind) IsIndirect() bool { return k == BranchIndirect || k == BranchIndCall }

// PushesRAS reports whether the branch pushes a return address.
func (k BranchKind) PushesRAS() bool { return k == BranchCall || k == BranchIndCall }

// IsUnconditional reports whether the branch is always taken when executed.
func (k BranchKind) IsUnconditional() bool { return k.IsBranch() && k != BranchCond }

// NumArchRegs is the number of architectural registers in each of the
// integer and floating-point files (mirrors AArch64's 31+SP / 32 layout,
// rounded to a power of two).
const NumArchRegs = 32

// RegNone marks an unused register operand slot.
const RegNone uint8 = 0xFF

// InstBytes is the fixed instruction size; the synthetic ISA is a
// fixed-width 4-byte RISC encoding like AArch64.
const InstBytes = 4

// Inst is one dynamic instruction in a trace: the architectural event
// stream a trace-driven simulator consumes. Fields that do not apply to
// the class are zero (e.g. Addr for ALU ops, Taken for non-branches).
//
// The three words come first so the seven one-byte fields share the
// last one: an Inst is 32 bytes, and traces are the largest allocation
// of a population sweep.
type Inst struct {
	PC uint64 // virtual address of the instruction

	// Target is where a taken branch went; for not-taken branches
	// NextPC() gives the successor.
	Target uint64

	// Addr is the virtual effective address of a Load/Store, Size its
	// access size in bytes.
	Addr uint64

	Class  Class      // execution class
	Branch BranchKind // branch kind, BranchNone for non-branches
	Taken  bool       // dynamic branch outcome
	Size   uint8

	// Register operands for dependence modelling. RegNone when absent.
	// FP classes name FP registers, others integer registers; the
	// renamer keeps the two files separate as in the real cores.
	Dst, Src1, Src2 uint8
}

// NextPC returns the address of the next dynamic instruction.
func (in *Inst) NextPC() uint64 {
	if in.Branch.IsBranch() && in.Taken {
		return in.Target
	}
	return in.PC + InstBytes
}

// MicroOps returns how many micro-operations the instruction decodes
// into. The synthetic ISA is RISC-like: nearly everything is one μop;
// stores crack into address-generate + data μops on these cores.
func (in *Inst) MicroOps() int {
	if in.Class == Store {
		return 2
	}
	return 1
}

// Decoded packs the per-instruction facts the pipeline needs on every
// dynamic instruction — μop count, fetch-line boundary, operand and
// branch classification — into one byte, compiled once per slice so
// every replay reads a table instead of re-deriving them. All bits
// except DecNewLine depend only on the instruction itself; DecNewLine
// encodes the relationship to the previous dynamic instruction's fetch
// line and is added by the stream compiler (trace.PreDecode).
type Decoded uint8

// Decoded bits.
const (
	// DecUops2 marks instructions that crack into two μops (stores);
	// everything else is one. Kept in bit 0 so μop count is d&1 + 1.
	DecUops2 Decoded = 1 << iota
	// DecNewLine marks the first instruction on its 64B fetch line —
	// the point where the front end touches the instruction cache.
	DecNewLine
	// DecHasDst is set when Dst names a destination (not RegNone).
	DecHasDst
	// DecMove marks register moves (zero-cycle-move eligible on M3+).
	DecMove
	// DecBranch marks any control transfer.
	DecBranch
)

// Uops returns the μop count the Decoded bits encode.
func (d Decoded) Uops() int { return int(d&DecUops2) + 1 }

// Decode computes the predecessor-independent Decoded bits for one
// instruction. DecNewLine is the caller's to add: it needs the previous
// dynamic instruction's fetch line.
func Decode(in *Inst) Decoded {
	var d Decoded
	if in.Class == Store {
		d |= DecUops2
	}
	if in.Dst != RegNone {
		d |= DecHasDst
	}
	if in.Class == Move {
		d |= DecMove
	}
	if in.Branch != BranchNone {
		d |= DecBranch
	}
	return d
}

// String renders the instruction in a compact disassembly-like form for
// debugging and trace dumps.
func (in *Inst) String() string {
	switch {
	case in.Branch.IsBranch():
		dir := "NT"
		if in.Taken {
			dir = "T"
		}
		return fmt.Sprintf("%#x: %s %s -> %#x", in.PC, in.Branch, dir, in.Target)
	case in.Class.IsMem():
		return fmt.Sprintf("%#x: %s [%#x] r%d", in.PC, in.Class, in.Addr, in.Dst)
	default:
		return fmt.Sprintf("%#x: %s r%d <- r%d, r%d", in.PC, in.Class, in.Dst, in.Src1, in.Src2)
	}
}

// Valid performs cheap structural validation, returning a descriptive
// error for malformed records. Trace readers use it to reject corrupt
// input early instead of producing confusing simulation results.
func (in *Inst) Valid() error {
	if in.Class >= numClasses {
		return fmt.Errorf("isa: invalid class %d at pc %#x", in.Class, in.PC)
	}
	if in.Branch != BranchNone && in.Class != Branch && in.Class != ALUComplex {
		return fmt.Errorf("isa: branch kind %v on non-branch class %v at pc %#x", in.Branch, in.Class, in.PC)
	}
	if in.Class == Branch && in.Branch == BranchNone {
		return fmt.Errorf("isa: class br without branch kind at pc %#x", in.PC)
	}
	if in.Class.IsMem() && in.Size == 0 {
		return fmt.Errorf("isa: memory op with zero size at pc %#x", in.PC)
	}
	if in.Branch.IsUnconditional() && !in.Taken {
		return fmt.Errorf("isa: unconditional branch not taken at pc %#x", in.PC)
	}
	return nil
}
