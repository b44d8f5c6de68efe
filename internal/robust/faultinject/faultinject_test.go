package faultinject

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"

	"exysim/internal/core"
	"exysim/internal/trace"
	"exysim/internal/workload"
)

var tinySpec = workload.SuiteSpec{SlicesPerFamily: 1, InstsPerSlice: 8_000, WarmupFrac: 0.25, Seed: 0xE59}

func TestPanicAtFiresEveryTime(t *testing.T) {
	hook := PanicAt(3)
	hook(2) // below the trigger: no panic
	for i := 0; i < 2; i++ {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("pass %d: PanicAt(3) did not fire at 3", i)
				}
			}()
			hook(3)
		}()
	}
}

func TestPanicOnceFiresExactlyOnce(t *testing.T) {
	hook := PanicOnce(3)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("first pass should panic")
			}
		}()
		hook(3)
	}()
	hook(3) // second pass: the transient fault is gone
}

func TestResultCorruptors(t *testing.T) {
	sl := workload.Suite(tinySpec)[0]
	r := core.RunSlice(core.Generations()[0], sl)

	nan := r
	NaNIPC(&nan)
	if !math.IsNaN(nan.IPC) {
		t.Fatal("NaNIPC")
	}
	neg := r
	NegativeLoadLat(&neg)
	if neg.AvgLoadLat >= 0 {
		t.Fatal("NegativeLoadLat")
	}
	ovf := r
	CounterOverflow(&ovf)
	if ovf.Front.Mispredicts <= ovf.Front.Branches {
		t.Fatal("CounterOverflow")
	}
}

func TestTruncateSliceSharesBacking(t *testing.T) {
	sl := workload.Suite(tinySpec)[0]
	cut := TruncateSlice(sl, 100)
	if len(cut.Insts) != 100 || cut.Warmup > 100 {
		t.Fatalf("cut to %d insts, warmup %d", len(cut.Insts), cut.Warmup)
	}
	if &cut.Insts[0] != &sl.Insts[0] {
		t.Fatal("TruncateSlice should share the backing array, not copy")
	}
	if whole := TruncateSlice(sl, len(sl.Insts)*2); len(whole.Insts) != len(sl.Insts) {
		t.Fatal("over-length truncation should clamp")
	}
}

// encode serializes a real slice so the corruption tests work on genuine
// trace bytes.
func encode(t *testing.T) ([]byte, *trace.Slice) {
	t.Helper()
	sl := workload.Suite(tinySpec)[0]
	var buf bytes.Buffer
	if err := trace.Write(&buf, sl); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), sl
}

func TestTruncatedTraceReportsOffset(t *testing.T) {
	data, _ := encode(t)
	for _, n := range []int{0, 3, 10, len(data) / 2, len(data) - 1} {
		cut := Truncate(data, n)
		_, err := trace.Read(bytes.NewReader(cut))
		if err == nil {
			t.Fatalf("truncation at %d bytes decoded cleanly", n)
		}
		var fe *trace.FormatError
		if !errors.As(err, &fe) {
			t.Fatalf("truncation at %d: want *trace.FormatError, got %T: %v", n, err, err)
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("truncation at %d should unwrap to ErrUnexpectedEOF: %v", n, err)
		}
		if fe.Offset < 0 || fe.Offset > int64(n) {
			t.Fatalf("truncation at %d: reported offset %d outside the input", n, fe.Offset)
		}
		if fe.Field == "" {
			t.Fatalf("truncation at %d: no field named: %v", n, err)
		}
	}
}

func TestCorruptMagicReportsHeader(t *testing.T) {
	data, _ := encode(t)
	_, err := trace.Read(bytes.NewReader(FlipByte(data, 0, 0xFF)))
	var fe *trace.FormatError
	if !errors.As(err, &fe) {
		t.Fatalf("want *trace.FormatError, got %v", err)
	}
	if fe.Record != -1 || fe.Field != "magic" {
		t.Fatalf("corrupt magic should blame the header: %+v", fe)
	}
}

func TestCorruptBodySurvivesOrFailsStructured(t *testing.T) {
	// Flipping bytes in the record stream must never panic: every
	// outcome is either a decoded (possibly wrong) slice that fails
	// validation, or a structured FormatError.
	data, _ := encode(t)
	for off := 6; off < len(data); off += 101 {
		sl, err := trace.Read(bytes.NewReader(FlipByte(data, off, 0x40)))
		if err != nil {
			var fe *trace.FormatError
			if !errors.As(err, &fe) {
				t.Fatalf("offset %d: unstructured decode error %T: %v", off, err, err)
			}
			continue
		}
		_ = sl.Validate() // may or may not fail; must not panic
	}
}

func TestCleanRoundTripStillWorks(t *testing.T) {
	data, sl := encode(t)
	got, err := trace.Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != sl.Name || len(got.Insts) != len(sl.Insts) {
		t.Fatal("round trip mangled the slice")
	}
}

func TestStallSleepsFromTriggerOn(t *testing.T) {
	hook := Stall(5, 0) // zero duration: just prove the branch logic
	hook(0)
	hook(5)
	hook(6)
}
