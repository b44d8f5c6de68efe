package trace

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"exysim/internal/isa"
)

func sample() *Slice {
	return &Slice{
		Name:   "unit/000",
		Suite:  "unit",
		Warmup: 2,
		Insts: []isa.Inst{
			{PC: 0x1000, Class: isa.ALUSimple, Dst: 1, Src1: 2, Src2: 3},
			{PC: 0x1004, Class: isa.Load, Addr: 0x8000, Size: 8, Dst: 4, Src1: 1},
			{PC: 0x1008, Class: isa.Branch, Branch: isa.BranchCond, Taken: true, Target: 0x1000},
			{PC: 0x1000, Class: isa.ALUSimple, Dst: 1, Src1: 2, Src2: 3},
			{PC: 0x1004, Class: isa.Store, Addr: 0x8008, Size: 8, Src1: 4},
			{PC: 0x1008, Class: isa.Branch, Branch: isa.BranchCond, Taken: false, Target: 0x1000},
			{PC: 0x100C, Class: isa.Branch, Branch: isa.BranchReturn, Taken: true, Target: 0x2000},
		},
	}
}

func TestValidateAcceptsConsistentTrace(t *testing.T) {
	if err := sample().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsDiscontinuity(t *testing.T) {
	s := sample()
	s.Insts[1].PC = 0x9999 // breaks linkage from inst 0
	if err := s.Validate(); err == nil {
		t.Fatal("expected discontinuity error")
	}
}

func TestValidateRejectsBadRecord(t *testing.T) {
	s := sample()
	s.Insts[1].Size = 0
	if err := s.Validate(); err == nil {
		t.Fatal("expected record error")
	}
}

func TestSummarize(t *testing.T) {
	st := sample().Summarize()
	if st.Insts != 7 {
		t.Fatalf("insts=%d", st.Insts)
	}
	if st.Branches != 3 {
		t.Fatalf("branches=%d", st.Branches)
	}
	if st.CondTaken != 1 || st.CondNotTkn != 1 {
		t.Fatalf("cond taken/nt = %d/%d", st.CondTaken, st.CondNotTkn)
	}
	if st.Returns != 1 {
		t.Fatalf("returns=%d", st.Returns)
	}
	if st.Loads != 1 || st.Stores != 1 {
		t.Fatalf("loads/stores=%d/%d", st.Loads, st.Stores)
	}
	if st.UniquePCs != 4 {
		t.Fatalf("uniquePCs=%d", st.UniquePCs)
	}
	if st.UniqueLines != 1 { // 0x8000 and 0x8008 share a 64B line
		t.Fatalf("uniqueLines=%d", st.UniqueLines)
	}
	if st.BranchRate() <= 0.4 || st.BranchRate() >= 0.5 {
		t.Fatalf("branchRate=%v", st.BranchRate())
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := sample()
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != s.Name || got.Suite != s.Suite || got.Warmup != s.Warmup {
		t.Fatalf("metadata mismatch: %+v", got)
	}
	if len(got.Insts) != len(s.Insts) {
		t.Fatalf("count %d != %d", len(got.Insts), len(s.Insts))
	}
	for i := range s.Insts {
		if got.Insts[i] != s.Insts[i] {
			t.Fatalf("inst %d: got %+v want %+v", i, got.Insts[i], s.Insts[i])
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("not a trace file"))); err == nil {
		t.Fatal("expected error for bad magic")
	}
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Fatal("expected error for empty input")
	}
	// A well-formed version-1 stream (no weight/cluster fields): magic,
	// version 1, empty name and suite, warmup 0, zero records.
	v1 := []byte{'T', 'Y', 'X', 'E', 1, 0, 0, 0, 0, 0}
	var fe *FormatError
	if _, err := Read(bytes.NewReader(v1)); !errors.As(err, &fe) || fe.Field != "version" {
		t.Fatalf("version-1 stream: err %v, want a version FormatError", err)
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sample()); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{7, len(full) / 2, len(full) - 1} {
		if _, err := Read(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("expected error for truncation at %d", cut)
		}
	}
}

var _ io.Reader = (*bytes.Buffer)(nil) // doc: traces stream through io.Reader

// Property: encode/decode round-trips arbitrary generated workload
// slices bit-exactly (covered indirectly by the fixed sample; this
// exercises delta encoding across the full record variety).
func TestEncodeDecodeGeneratedTraces(t *testing.T) {
	// Construct a slice with every class and branch kind plus wild
	// address deltas (forward and backward).
	mk := func(seed uint64) *Slice {
		var insts []isa.Inst
		pc := uint64(0x400000)
		addr := uint64(0x10000000)
		for i := 0; i < 500; i++ {
			seed = seed*6364136223846793005 + 1442695040888963407
			switch seed % 5 {
			case 0:
				insts = append(insts, isa.Inst{PC: pc, Class: isa.Load, Addr: addr, Size: 8, Dst: 3, Src1: 1})
				addr += (seed >> 8) % 1_000_000
			case 1:
				insts = append(insts, isa.Inst{PC: pc, Class: isa.Store, Addr: addr, Size: 4, Src1: 2})
				addr -= (seed >> 9) % 500_000
			case 2:
				tgt := pc + 4 + (seed>>16)%4096*4
				insts = append(insts, isa.Inst{PC: pc, Class: isa.Branch, Branch: isa.BranchCond, Taken: seed%2 == 0, Target: tgt})
				if seed%2 == 0 {
					pc = tgt - 4
				}
			case 3:
				insts = append(insts, isa.Inst{PC: pc, Class: isa.FPMAC, Dst: 7, Src1: 8, Src2: 9})
			default:
				insts = append(insts, isa.Inst{PC: pc, Class: isa.ALUSimple, Dst: 1, Src1: 1, Src2: 2})
			}
			pc += 4
		}
		return &Slice{Name: "prop", Suite: "unit", Warmup: 50, Insts: insts}
	}
	for seed := uint64(1); seed < 20; seed++ {
		s := mk(seed)
		var buf bytes.Buffer
		if err := Write(&buf, s); err != nil {
			t.Fatal(err)
		}
		got, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for i := range s.Insts {
			if got.Insts[i] != s.Insts[i] {
				t.Fatalf("seed %d inst %d mismatch", seed, i)
			}
		}
	}
}
