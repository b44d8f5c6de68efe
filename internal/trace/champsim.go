package trace

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"

	"exysim/internal/isa"
)

// ChampSim trace import
//
// The ecosystem's public branch-prediction and prefetching work (the
// perceptron predictors and prefetchers the paper's ideas are contrasted
// with) largely runs on ChampSim traces, so exysim can ingest them: each
// record is a fixed 64-byte input_instr —
//
//	u64 ip
//	u8  is_branch
//	u8  branch_taken
//	u8  destination_registers[2]
//	u8  source_registers[4]
//	u64 destination_memory[2]
//	u64 source_memory[4]
//
// Conversion notes: branch kinds are recovered with ChampSim's own
// register-usage heuristics (IP/SP/flags pseudo-registers); taken-branch
// targets are inferred from the next record's ip; instructions touching
// several memory operands are collapsed to their first one (exysim's ISA
// is RISC-like, one memory operand per instruction), preferring the load
// side; register identifiers are folded into exysim's 32-register file.
// gzip-compressed inputs are detected automatically; xz-compressed traces
// must be decompressed externally (the Go standard library has no xz).

// ChampSim's special register numbers (x86 tracer conventions).
const (
	champSP    = 6
	champFlags = 25
	champIP    = 64
)

// champRecordBytes is the fixed input_instr size.
const champRecordBytes = 64

type champRecord struct {
	ip       uint64
	isBranch bool
	taken    bool
	dstRegs  [2]uint8
	srcRegs  [4]uint8
	dstMem   [2]uint64
	srcMem   [4]uint64
}

func parseChampRecord(b []byte) champRecord {
	var r champRecord
	r.ip = binary.LittleEndian.Uint64(b[0:8])
	r.isBranch = b[8] != 0
	r.taken = b[9] != 0
	copy(r.dstRegs[:], b[10:12])
	copy(r.srcRegs[:], b[12:16])
	for i := 0; i < 2; i++ {
		r.dstMem[i] = binary.LittleEndian.Uint64(b[16+8*i : 24+8*i])
	}
	for i := 0; i < 4; i++ {
		r.srcMem[i] = binary.LittleEndian.Uint64(b[32+8*i : 40+8*i])
	}
	return r
}

func (r *champRecord) readsReg(reg uint8) bool {
	for _, s := range r.srcRegs {
		if s == reg {
			return true
		}
	}
	return false
}

func (r *champRecord) writesReg(reg uint8) bool {
	for _, d := range r.dstRegs {
		if d == reg {
			return true
		}
	}
	return false
}

// readsOther reports a source register besides IP/SP/flags.
func (r *champRecord) readsOther() bool {
	for _, s := range r.srcRegs {
		if s != 0 && s != champIP && s != champSP && s != champFlags {
			return true
		}
	}
	return false
}

// branchKind applies ChampSim's classification rules.
func (r *champRecord) branchKind() isa.BranchKind {
	writesIP := r.writesReg(champIP)
	readsIP := r.readsReg(champIP)
	readsSP := r.readsReg(champSP)
	writesSP := r.writesReg(champSP)
	readsFlags := r.readsReg(champFlags)
	switch {
	case !writesIP:
		return isa.BranchNone
	case readsIP && readsFlags:
		return isa.BranchCond
	case readsIP && readsSP && writesSP && !r.readsOther():
		return isa.BranchCall
	case readsIP && readsSP && writesSP:
		return isa.BranchIndCall
	case !readsIP && readsSP && writesSP:
		return isa.BranchReturn
	case !readsIP && r.readsOther():
		return isa.BranchIndirect
	default:
		return isa.BranchUncond
	}
}

// foldReg maps ChampSim register ids into exysim's 32-register file,
// keeping 0 (none) as RegNone.
func foldReg(r uint8) uint8 {
	if r == 0 {
		return isa.RegNone
	}
	return 1 + (r-1)%(isa.NumArchRegs-1)
}

// convert maps one parsed record into exysim's ISA. The returned
// instruction's Target is unresolved for taken branches — the caller
// fills it from the next record's ip.
func (r *champRecord) convert() isa.Inst {
	in := isa.Inst{PC: r.ip, Class: isa.ALUSimple}
	// Memory side: prefer the load operand; collapse extras.
	switch {
	case r.srcMem[0] != 0:
		in.Class = isa.Load
		in.Addr = r.srcMem[0]
		in.Size = 8
	case r.dstMem[0] != 0:
		in.Class = isa.Store
		in.Addr = r.dstMem[0]
		in.Size = 8
	}
	if r.isBranch {
		if k := r.branchKind(); k != isa.BranchNone {
			in.Class = isa.Branch
			in.Branch = k
			in.Taken = r.taken || k.IsUnconditional()
			in.Addr, in.Size = 0, 0
		}
	}
	in.Dst = foldReg(r.dstRegs[0])
	in.Src1 = foldReg(r.srcRegs[0])
	in.Src2 = foldReg(r.srcRegs[1])
	return in
}

// ChampSimReader streams a ChampSim trace as isa.Inst records in bounded
// memory: its working state is one bufio window (plus the gzip window for
// compressed inputs) and a single pending instruction held back until the
// next record's ip resolves its branch target. It implements Reader; it
// never materializes the trace, so arbitrarily long traces convert with a
// flat footprint. It cannot rewind — compressed streams are read once;
// callers that need replay re-open the source.
type ChampSimReader struct {
	br      *bufio.Reader
	max     int // 0 = unlimited
	count   int // records parsed so far
	emitted int // instructions returned from Next
	pending isa.Inst
	havePen bool
	done    bool
}

// NewChampSimReader wraps a raw or gzip-compressed ChampSim stream.
// maxInsts (0 = unlimited) bounds how many records are parsed.
func NewChampSimReader(r io.Reader, maxInsts int) (*ChampSimReader, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	// Transparent gzip detection.
	if magic, err := br.Peek(2); err == nil && magic[0] == 0x1f && magic[1] == 0x8b {
		gz, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("trace: gzip: %w", err)
		}
		br = bufio.NewReaderSize(gz, 1<<20)
	}
	return &ChampSimReader{br: br, max: maxInsts}, nil
}

// Insts returns the number of instructions emitted so far.
func (c *ChampSimReader) Insts() int { return c.emitted }

// Next implements Reader. The final record of the stream is dropped when
// it is a taken branch: with no successor to infer a target from, the
// reader refuses to invent one.
func (c *ChampSimReader) Next() (isa.Inst, error) {
	var buf [champRecordBytes]byte
	for {
		if c.done || (c.max != 0 && c.count >= c.max) {
			if c.havePen {
				c.havePen = false
				if c.pending.Branch.IsBranch() && c.pending.Taken {
					// No successor to infer a target from: drop the
					// final taken branch rather than invent a target.
					return isa.Inst{}, ErrEnd
				}
				c.emitted++
				return c.pending, nil
			}
			return isa.Inst{}, ErrEnd
		}
		if _, err := io.ReadFull(c.br, buf[:]); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				c.done = true
				continue
			}
			return isa.Inst{}, err
		}
		rec := parseChampRecord(buf[:])
		in := rec.convert()
		c.count++
		out, haveOut := c.pending, c.havePen
		c.pending, c.havePen = in, true
		if haveOut {
			if out.Branch.IsBranch() && out.Taken {
				out.Target = rec.ip
			}
			c.emitted++
			return out, nil
		}
	}
}

// WriteChampSim encodes the slice as a ChampSim input_instr stream —
// the importer's inverse, used to build fixtures and round-trip tests
// from synthetic workloads. Branch kinds are expressed through the same
// register-usage conventions branchKind recovers; operand register ids
// pass through as-is for non-branches (exysim's 32-register file is a
// subset of the tracer's id space). Loads/stores with address 0 re-read
// as ALU records: the format marks memory operands by a nonzero slot.
func WriteChampSim(w io.Writer, sl *Slice) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	var b [champRecordBytes]byte
	for i := range sl.Insts {
		in := &sl.Insts[i]
		for j := range b {
			b[j] = 0
		}
		binary.LittleEndian.PutUint64(b[0:8], in.PC)
		switch {
		case in.Branch.IsBranch():
			b[8] = 1
			if in.Taken {
				b[9] = 1
			}
			switch in.Branch {
			case isa.BranchCond:
				b[10] = champIP
				b[12], b[13] = champIP, champFlags
			case isa.BranchCall:
				b[10], b[11] = champIP, champSP
				b[12], b[13] = champIP, champSP
			case isa.BranchIndCall:
				b[10], b[11] = champIP, champSP
				b[12], b[13], b[14] = champIP, champSP, 12
			case isa.BranchReturn:
				b[10], b[11] = champIP, champSP
				b[12] = champSP
			case isa.BranchIndirect:
				b[10] = champIP
				b[12] = 12
			default: // BranchUncond
				b[10] = champIP
				b[12] = champIP
			}
		default:
			b[10] = in.Dst
			b[12], b[13] = in.Src1, in.Src2
			switch in.Class {
			case isa.Load:
				binary.LittleEndian.PutUint64(b[32:40], in.Addr)
			case isa.Store:
				binary.LittleEndian.PutUint64(b[16:24], in.Addr)
			}
		}
		if _, err := bw.Write(b[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadChampSim converts a ChampSim trace stream into a Slice. name/suite
// label the result; maxInsts (0 = unlimited) bounds the conversion, and
// warmup sets the slice's warmup prefix. This materializes the whole
// stream; use ChampSimReader directly for bounded-memory ingest.
func ReadChampSim(r io.Reader, name, suite string, maxInsts, warmup int) (*Slice, error) {
	cr, err := NewChampSimReader(r, maxInsts)
	if err != nil {
		return nil, err
	}
	sl := &Slice{Name: name, Suite: suite, Warmup: warmup}
	for {
		in, err := cr.Next()
		if err == ErrEnd {
			break
		}
		if err != nil {
			return nil, err
		}
		sl.Insts = append(sl.Insts, in)
	}
	if len(sl.Insts) == 0 {
		return nil, fmt.Errorf("trace: champsim stream %q contained no instructions", name)
	}
	if sl.Warmup >= len(sl.Insts) {
		// A warmup covering the whole stream would leave nothing to
		// measure. Clamp to 10% — but say so on the slice instead of
		// rewriting the request silently, so callers can warn or reject.
		sl.RequestedWarmup = sl.Warmup
		sl.WarmupClamped = true
		sl.Warmup = len(sl.Insts) / 10
	}
	return sl, nil
}
