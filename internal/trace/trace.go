// Package trace defines the dynamic instruction trace abstraction consumed
// by the trace-driven performance model, mirroring the paper's methodology
// (§II): SimPoint-style slices with a warmup prefix followed by a detailed
// region. A trace is simply a replayable stream of isa.Inst records plus
// metadata; traces can live in memory (synthetic workloads) or on disk in
// a compact binary format.
package trace

import (
	"errors"
	"io"

	"exysim/internal/isa"
)

// ErrEnd is returned by Reader.Next when the trace is exhausted.
// It aliases io.EOF so callers can use errors.Is(err, io.EOF) as well.
var ErrEnd = io.EOF

// Reader streams a dynamic instruction stream one record at a time, for
// sources too large to hold in memory (ChampSimReader feeds the SimPoint
// passes this way). In-memory slices are indexed instead.
type Reader interface {
	// Next returns the next instruction, or ErrEnd after the last one.
	Next() (isa.Inst, error)
}

// Slice is an in-memory trace with metadata. Replays step its
// pre-decoded stream (PreDecode) by index and never write Insts, so one
// slice is safely shared by every simulator and goroutine that replays
// it. The zero value is an empty trace.
type Slice struct {
	// Name identifies the workload slice (e.g. "spec.mcf-like/3").
	Name string
	// Suite is the workload family the slice belongs to ("spec",
	// "web", "mobile", "game", ...), used for per-suite reporting.
	Suite string
	// Warmup is the number of leading instructions used to warm
	// microarchitectural state before measurement begins (§II uses 10M
	// warmup + 100M detailed; our synthetic slices are proportionally
	// smaller but keep the same two-phase structure).
	Warmup int

	// WarmupClamped records that the reader clamped a requested warmup
	// that covered the whole stream (RequestedWarmup holds the original
	// ask). Callers decide whether a shortened warmup invalidates their
	// methodology; the trace layer only reports it.
	WarmupClamped   bool
	RequestedWarmup int

	// Weight is the slice's contribution when aggregating a SimPoint
	// population: the fraction of the source trace's intervals its
	// phase cluster covers. Zero means "unweighted" — synthetic slices
	// leave it at zero and aggregate with weight 1.
	Weight float64
	// Cluster is the phase-cluster index a SimPoint pick represents;
	// meaningful only when Weight > 0.
	Cluster int

	Insts []isa.Inst
}

// Cursor returns a value copy of the slice sharing the read-only Insts
// backing array. Replays index the shared storage directly, so a copy is
// never needed for concurrency; it remains for callers that want a Slice
// value.
func (s *Slice) Cursor() Slice { return *s }

// Len returns the total dynamic instruction count.
func (s *Slice) Len() int { return len(s.Insts) }

// Validate checks every record and the control-flow linkage between
// consecutive records (instruction i+1 must live at instruction i's
// NextPC). Generators are tested against this to guarantee that the
// front-end model sees a self-consistent program.
func (s *Slice) Validate() error {
	for i := range s.Insts {
		if err := s.Insts[i].Valid(); err != nil {
			return err
		}
		if i+1 < len(s.Insts) {
			want := s.Insts[i].NextPC()
			if got := s.Insts[i+1].PC; got != want {
				return errors.New("trace: control-flow discontinuity in " + s.Name)
			}
		}
	}
	return nil
}

// Stats summarizes the static/dynamic character of a slice; the workload
// generators are unit-tested against these to guarantee each synthetic
// family exercises the axis it claims to.
type Stats struct {
	Insts       int
	Branches    int
	CondTaken   int
	CondNotTkn  int
	Indirects   int
	Returns     int
	Loads       int
	Stores      int
	UniquePCs   int
	UniqueLines int // unique 64B data cache lines touched
}

// BranchRate returns dynamic branches per instruction.
func (st Stats) BranchRate() float64 {
	if st.Insts == 0 {
		return 0
	}
	return float64(st.Branches) / float64(st.Insts)
}

// Summarize computes Stats for the slice.
func (s *Slice) Summarize() Stats {
	var st Stats
	pcs := make(map[uint64]struct{})
	lines := make(map[uint64]struct{})
	for i := range s.Insts {
		in := &s.Insts[i]
		st.Insts++
		pcs[in.PC] = struct{}{}
		if in.Branch.IsBranch() {
			st.Branches++
			switch {
			case in.Branch == isa.BranchCond && in.Taken:
				st.CondTaken++
			case in.Branch == isa.BranchCond:
				st.CondNotTkn++
			case in.Branch.IsIndirect():
				st.Indirects++
			case in.Branch == isa.BranchReturn:
				st.Returns++
			}
		}
		switch in.Class {
		case isa.Load:
			st.Loads++
			lines[in.Addr>>6] = struct{}{}
		case isa.Store:
			st.Stores++
			lines[in.Addr>>6] = struct{}{}
		}
	}
	st.UniquePCs = len(pcs)
	st.UniqueLines = len(lines)
	return st
}
