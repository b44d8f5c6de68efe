package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"exysim/internal/isa"
)

// Binary trace format
//
// Traces can be persisted so that expensive synthetic generation (or a
// future import of real traces) is done once and replayed many times.
// The format is a small custom encoding rather than encoding/gob because
// trace files dominate experiment I/O and the varint delta encoding below
// is ~6x smaller: PCs and addresses are delta-encoded against the previous
// record, and flags are packed into one byte.
//
//	magic   "EXYT" u32
//	version u16
//	name    varint-len + bytes
//	suite   varint-len + bytes
//	warmup  uvarint
//	weight  uvarint float64 bits
//	cluster varint
//	count   uvarint
//	count * record:
//	  head   u8: class(4) | branchKind(3 of 4 bits) ...
//
// Record layout per instruction:
//	u8  class
//	u8  branch kind | takenBit<<7
//	varint  ΔPC (signed, from previous record's PC)
//	if branch&taken: varint ΔTarget (signed, from PC)
//	if mem: varint ΔAddr (signed, from previous mem addr), u8 size
//	u8 dst, u8 src1, u8 src2

const (
	magic = 0x45585954 // "EXYT"
	// version 2 added the SimPoint weight/cluster fields. Read accepts
	// this version only.
	version = 2
)

// FormatError describes a corrupt or truncated trace stream: which field
// of which record failed to decode, at which byte offset of the input.
// It wraps the underlying cause (errors.Is(err, io.ErrUnexpectedEOF)
// distinguishes truncation from corruption), so tools can both print an
// actionable message and branch on the failure class.
type FormatError struct {
	Offset int64  // byte offset where decoding failed
	Record int64  // zero-based record index, -1 while in the header
	Field  string // the field being decoded ("pc", "target", "count", ...)
	Err    error
}

func (e *FormatError) Error() string {
	where := "header"
	if e.Record >= 0 {
		where = fmt.Sprintf("record %d", e.Record)
	}
	return fmt.Sprintf("trace: %s field %q at byte offset %d: %v", where, e.Field, e.Offset, e.Err)
}

func (e *FormatError) Unwrap() error { return e.Err }

// countReader tracks the number of bytes consumed from the underlying
// buffered reader so decode errors can report where the stream broke.
type countReader struct {
	br *bufio.Reader
	n  int64
}

func (c *countReader) ReadByte() (byte, error) {
	b, err := c.br.ReadByte()
	if err == nil {
		c.n++
	}
	return b, err
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.br.Read(p)
	c.n += int64(n)
	return n, err
}

// Write serializes the slice to w.
func Write(w io.Writer, s *Slice) error {
	bw := bufio.NewWriter(w)
	var scratch [binary.MaxVarintLen64]byte
	putU := func(v uint64) error {
		n := binary.PutUvarint(scratch[:], v)
		_, err := bw.Write(scratch[:n])
		return err
	}
	putI := func(v int64) error {
		n := binary.PutVarint(scratch[:], v)
		_, err := bw.Write(scratch[:n])
		return err
	}
	putStr := func(str string) error {
		if err := putU(uint64(len(str))); err != nil {
			return err
		}
		_, err := bw.WriteString(str)
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(magic)); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint16(version)); err != nil {
		return err
	}
	if err := putStr(s.Name); err != nil {
		return err
	}
	if err := putStr(s.Suite); err != nil {
		return err
	}
	if err := putU(uint64(s.Warmup)); err != nil {
		return err
	}
	if err := putU(math.Float64bits(s.Weight)); err != nil {
		return err
	}
	if err := putI(int64(s.Cluster)); err != nil {
		return err
	}
	if err := putU(uint64(len(s.Insts))); err != nil {
		return err
	}
	var prevPC, prevAddr uint64
	for i := range s.Insts {
		in := &s.Insts[i]
		if err := bw.WriteByte(byte(in.Class)); err != nil {
			return err
		}
		kb := byte(in.Branch)
		if in.Taken {
			kb |= 0x80
		}
		if err := bw.WriteByte(kb); err != nil {
			return err
		}
		if err := putI(int64(in.PC - prevPC)); err != nil {
			return err
		}
		prevPC = in.PC
		if in.Branch.IsBranch() {
			if err := putI(int64(in.Target - in.PC)); err != nil {
				return err
			}
		}
		if in.Class.IsMem() {
			if err := putI(int64(in.Addr - prevAddr)); err != nil {
				return err
			}
			prevAddr = in.Addr
			if err := bw.WriteByte(in.Size); err != nil {
				return err
			}
		}
		if _, err := bw.Write([]byte{in.Dst, in.Src1, in.Src2}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read deserializes a slice written by Write. Corrupt or truncated input
// returns a *FormatError carrying the byte offset, record index, and
// field where decoding broke — never a panic, and never a bare "EOF"
// with no location.
func Read(r io.Reader) (*Slice, error) {
	cr := &countReader{br: bufio.NewReader(r)}
	rec := int64(-1) // -1 while decoding the header
	// fail wraps err with the current location. A clean EOF mid-stream is
	// really a truncation: anything after the magic has a known remaining
	// length, so running out of bytes is always unexpected.
	fail := func(field string, err error) error {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return &FormatError{Offset: cr.n, Record: rec, Field: field, Err: err}
	}
	var hdr [6]byte // u32 magic + u16 version
	if _, err := io.ReadFull(cr, hdr[:]); err != nil {
		return nil, fail("magic", err)
	}
	if m := binary.LittleEndian.Uint32(hdr[:4]); m != magic {
		return nil, fail("magic", fmt.Errorf("bad magic %#x", m))
	}
	ver := binary.LittleEndian.Uint16(hdr[4:])
	if ver != version {
		return nil, fail("version", fmt.Errorf("unsupported version %d (want %d)", ver, version))
	}
	getStr := func(field string) (string, error) {
		n, err := binary.ReadUvarint(cr)
		if err != nil {
			return "", fail(field, err)
		}
		if n > 1<<20 {
			return "", fail(field, fmt.Errorf("unreasonable string length %d", n))
		}
		b := make([]byte, n)
		if _, err := io.ReadFull(cr, b); err != nil {
			return "", fail(field, err)
		}
		return string(b), nil
	}
	s := &Slice{}
	var err error
	if s.Name, err = getStr("name"); err != nil {
		return nil, err
	}
	if s.Suite, err = getStr("suite"); err != nil {
		return nil, err
	}
	warm, err := binary.ReadUvarint(cr)
	if err != nil {
		return nil, fail("warmup", err)
	}
	s.Warmup = int(warm)
	wbits, err := binary.ReadUvarint(cr)
	if err != nil {
		return nil, fail("weight", err)
	}
	s.Weight = math.Float64frombits(wbits)
	if math.IsNaN(s.Weight) || math.IsInf(s.Weight, 0) || s.Weight < 0 {
		return nil, fail("weight", fmt.Errorf("invalid weight %v", s.Weight))
	}
	cl, err := binary.ReadVarint(cr)
	if err != nil {
		return nil, fail("cluster", err)
	}
	s.Cluster = int(cl)
	count, err := binary.ReadUvarint(cr)
	if err != nil {
		return nil, fail("count", err)
	}
	if count > 1<<32 {
		return nil, fail("count", fmt.Errorf("unreasonable instruction count %d", count))
	}
	// Allocate incrementally: a forged header must not be able to demand
	// gigabytes up front. Each record is at least 7 bytes, so a
	// truncated stream fails fast instead.
	initial := count
	if initial > 1<<16 {
		initial = 1 << 16
	}
	s.Insts = make([]isa.Inst, 0, initial)
	var prevPC, prevAddr uint64
	for i := uint64(0); i < count; i++ {
		rec = int64(i)
		s.Insts = append(s.Insts, isa.Inst{})
		in := &s.Insts[len(s.Insts)-1]
		cls, err := cr.ReadByte()
		if err != nil {
			return nil, fail("class", err)
		}
		in.Class = isa.Class(cls)
		kb, err := cr.ReadByte()
		if err != nil {
			return nil, fail("branch", err)
		}
		in.Branch = isa.BranchKind(kb & 0x7F)
		in.Taken = kb&0x80 != 0
		dpc, err := binary.ReadVarint(cr)
		if err != nil {
			return nil, fail("pc", err)
		}
		in.PC = prevPC + uint64(dpc)
		prevPC = in.PC
		if in.Branch.IsBranch() {
			dt, err := binary.ReadVarint(cr)
			if err != nil {
				return nil, fail("target", err)
			}
			in.Target = in.PC + uint64(dt)
		}
		if in.Class.IsMem() {
			da, err := binary.ReadVarint(cr)
			if err != nil {
				return nil, fail("addr", err)
			}
			in.Addr = prevAddr + uint64(da)
			prevAddr = in.Addr
			if in.Size, err = cr.ReadByte(); err != nil {
				return nil, fail("size", err)
			}
		}
		var ops [3]byte
		if _, err := io.ReadFull(cr, ops[:]); err != nil {
			return nil, fail("operands", err)
		}
		in.Dst, in.Src1, in.Src2 = ops[0], ops[1], ops[2]
		if err := in.Valid(); err != nil {
			return nil, fail("record", err)
		}
	}
	return s, nil
}
