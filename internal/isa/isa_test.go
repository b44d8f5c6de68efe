package isa

import (
	"testing"
	"unsafe"
)

// TestInstPacked pins the trace record at 32 bytes: the three words
// first, then the seven one-byte fields in the last word. A field added
// or moved between the words grows every materialized trace.
func TestInstPacked(t *testing.T) {
	if got := unsafe.Sizeof(Inst{}); got != 32 {
		t.Fatalf("isa.Inst is %d bytes, want 32", got)
	}
}

func TestNextPC(t *testing.T) {
	in := Inst{PC: 0x1000, Class: ALUSimple}
	if got := in.NextPC(); got != 0x1004 {
		t.Fatalf("sequential NextPC=%#x", got)
	}
	br := Inst{PC: 0x1000, Class: Branch, Branch: BranchCond, Taken: true, Target: 0x2000}
	if got := br.NextPC(); got != 0x2000 {
		t.Fatalf("taken NextPC=%#x", got)
	}
	br.Taken = false
	if got := br.NextPC(); got != 0x1004 {
		t.Fatalf("not-taken NextPC=%#x", got)
	}
}

func TestMicroOps(t *testing.T) {
	if (&Inst{Class: Store, Size: 8}).MicroOps() != 2 {
		t.Fatal("store should crack to 2 uops")
	}
	if (&Inst{Class: Load, Size: 8}).MicroOps() != 1 {
		t.Fatal("load should be 1 uop")
	}
	if (&Inst{Class: FPMAC}).MicroOps() != 1 {
		t.Fatal("fmac should be 1 uop")
	}
}

func TestClassPredicates(t *testing.T) {
	if !Load.IsMem() || !Store.IsMem() || ALUSimple.IsMem() {
		t.Fatal("IsMem misclassifies")
	}
	if !FPMAC.IsFP() || !FPADD.IsFP() || Load.IsFP() {
		t.Fatal("IsFP misclassifies")
	}
}

func TestBranchKindPredicates(t *testing.T) {
	if BranchNone.IsBranch() {
		t.Fatal("none is not a branch")
	}
	for _, k := range []BranchKind{BranchCond, BranchUncond, BranchCall, BranchReturn, BranchIndirect, BranchIndCall} {
		if !k.IsBranch() {
			t.Fatalf("%v should be a branch", k)
		}
	}
	if !BranchIndirect.IsIndirect() || !BranchIndCall.IsIndirect() || BranchCond.IsIndirect() {
		t.Fatal("IsIndirect misclassifies")
	}
	if !BranchCall.PushesRAS() || !BranchIndCall.PushesRAS() || BranchReturn.PushesRAS() {
		t.Fatal("PushesRAS misclassifies")
	}
	if BranchCond.IsUnconditional() || !BranchUncond.IsUnconditional() || !BranchReturn.IsUnconditional() {
		t.Fatal("IsUnconditional misclassifies")
	}
}

func TestInstString(t *testing.T) {
	br := Inst{PC: 0x100, Class: Branch, Branch: BranchCond, Taken: true, Target: 0x200}
	if got := br.String(); got != "0x100: cond T -> 0x200" {
		t.Fatalf("branch string %q", got)
	}
	ld := Inst{PC: 0x104, Class: Load, Addr: 0x8000, Size: 8, Dst: 3}
	if got := ld.String(); got != "0x104: ld [0x8000] r3" {
		t.Fatalf("load string %q", got)
	}
	alu := Inst{PC: 0x108, Class: ALUSimple, Dst: 1, Src1: 2, Src2: 3}
	if got := alu.String(); got != "0x108: alu r1 <- r2, r3" {
		t.Fatalf("alu string %q", got)
	}
}

func TestValid(t *testing.T) {
	good := Inst{PC: 0x10, Class: Branch, Branch: BranchCond, Taken: true, Target: 0x40}
	if err := good.Valid(); err != nil {
		t.Fatalf("valid branch rejected: %v", err)
	}
	cases := []Inst{
		{PC: 1, Class: Class(200)},                                 // bad class
		{PC: 1, Class: Load, Branch: BranchCond},                   // branch kind on load
		{PC: 1, Class: Branch},                                     // class br without kind
		{PC: 1, Class: Load, Size: 0},                              // mem without size
		{PC: 1, Class: Branch, Branch: BranchUncond, Taken: false}, // uncond not taken
		{PC: 1, Class: Branch, Branch: BranchReturn, Taken: false}, // ret not taken
	}
	for i, in := range cases {
		if err := in.Valid(); err == nil {
			t.Fatalf("case %d should be invalid", i)
		}
	}
}

func TestStringers(t *testing.T) {
	for c := Class(0); int(c) < NumClasses; c++ {
		if c.String() == "" {
			t.Fatalf("class %d has empty name", c)
		}
	}
	for k := BranchNone; k <= BranchIndCall; k++ {
		if k.String() == "" {
			t.Fatalf("kind %d has empty name", k)
		}
	}
}
