package trace_test

import (
	"os"
	"testing"

	"exysim/internal/isa"
	"exysim/internal/rng"
	"exysim/internal/trace"
	"exysim/internal/workload"
)

// checkPreDecode holds PreDecode to its reference: Meta[i] is
// isa.Decode(&Insts[i]), with DecNewLine set exactly when instruction
// i's 64-byte line differs from instruction i-1's, and always for i = 0.
// This is the derivation a core once made on every step; the decoded
// stream must reproduce it bit for bit.
func checkPreDecode(t *testing.T, sl *trace.Slice) {
	t.Helper()
	pd := sl.PreDecode()
	if pd.Slice != sl {
		t.Fatalf("%s: PreDecoded does not point back at its slice", sl.Name)
	}
	if len(pd.Meta) != len(sl.Insts) {
		t.Fatalf("%s: %d meta bytes for %d instructions", sl.Name, len(pd.Meta), len(sl.Insts))
	}
	for i := range sl.Insts {
		in := &sl.Insts[i]
		want := isa.Decode(in)
		if want&isa.DecNewLine != 0 {
			t.Fatalf("%s[%d]: isa.Decode set the stream-relative DecNewLine bit", sl.Name, i)
		}
		if i == 0 || in.PC>>6 != sl.Insts[i-1].PC>>6 {
			want |= isa.DecNewLine
		}
		if got := pd.Meta[i]; got != want {
			t.Fatalf("%s[%d] (pc %#x): meta %08b, want %08b", sl.Name, i, in.PC, got, want)
		}
	}
}

func TestPreDecodeMatchesReferenceOnSuite(t *testing.T) {
	for _, sl := range workload.Suite(workload.SuiteSpec{SlicesPerFamily: 1, InstsPerSlice: 4_000, WarmupFrac: 0.25, Seed: 0xE59}) {
		checkPreDecode(t, sl)
	}
}

func TestPreDecodeMatchesReferenceOnChampSimFixture(t *testing.T) {
	f, err := os.Open("../tracestore/testdata/fixture.champsim.gz")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sl, err := trace.ReadChampSim(f, "fixture", "trace", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(sl.Insts) == 0 {
		t.Fatal("fixture decoded to an empty slice")
	}
	checkPreDecode(t, sl)
}

// TestPreDecodeMatchesReferenceOnRandomStream drives the line-boundary
// bit through the cases a generated program rarely lines up: runs that
// stay on one line, A/B/A/B alternation between two lines, a jump back
// to the line two instructions earlier, neighbouring lines, PCs at the
// first and last byte of a line, and fresh random lines, with random
// classes and operands.
func TestPreDecodeMatchesReferenceOnRandomStream(t *testing.T) {
	r := rng.New(0x9D3C)
	const n = 20_000
	insts := make([]isa.Inst, 0, n)
	line := uint64(0x4000)
	other := line + 1
	for len(insts) < n {
		var pcs []uint64
		switch r.Intn(6) {
		case 0: // a run on one line
			for k := r.Intn(20); k >= 0; k-- {
				pcs = append(pcs, line<<6|uint64(r.Intn(16))*4)
			}
		case 1: // alternate between two lines
			for k := r.Intn(12); k >= 0; k-- {
				pcs = append(pcs, line<<6|uint64(r.Intn(16))*4, other<<6|uint64(r.Intn(16))*4)
			}
		case 2: // the first and last byte of one line
			pcs = append(pcs, line<<6, line<<6|63)
		case 3: // the neighbouring line
			line++
			pcs = append(pcs, line<<6)
		case 4: // swap the pair, so the next run revisits the other line
			line, other = other, line
			pcs = append(pcs, line<<6|4)
		default: // a fresh random line
			other = line
			line = uint64(r.Intn(1 << 20))
			pcs = append(pcs, line<<6|uint64(r.Intn(64)))
		}
		for _, pc := range pcs {
			in := isa.Inst{
				PC:    pc,
				Class: isa.Class(r.Intn(isa.NumClasses)),
				Dst:   uint8(r.Intn(isa.NumArchRegs)),
				Src1:  uint8(r.Intn(isa.NumArchRegs)),
			}
			if r.Intn(4) == 0 {
				in.Dst = isa.RegNone
			}
			if in.Class == isa.Branch {
				in.Branch = isa.BranchKind(1 + r.Intn(int(isa.BranchIndCall)))
			}
			insts = append(insts, in)
		}
	}
	checkPreDecode(t, &trace.Slice{Name: "random", Insts: insts})
	checkPreDecode(t, &trace.Slice{Name: "empty"})
}
