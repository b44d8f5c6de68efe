package trace

import (
	"math"

	"exysim/internal/isa"
)

// PreDecoded couples a slice with its compiled decode stream: one
// isa.Decoded byte per dynamic instruction, carrying the μop count,
// fetch-line-boundary bit, and operand/branch classification the
// pipeline reads on every step (pipeline.Core.StepDecoded, the only step
// entry point). The metadata is a pure function of the instruction
// stream — generation-invariant — so one compilation serves every
// simulator, generation and rep that replays the slice.
type PreDecoded struct {
	Slice *Slice
	Meta  []isa.Decoded
}

// PreDecode compiles the slice's decode stream: Meta[i] is
// isa.Decode(&Insts[i]), plus DecNewLine when instruction i's 64B fetch
// line differs from instruction i-1's. Instruction 0 always starts a
// line, as it does on a cold core, and because the bit depends only on
// the stream predecessor, a replay forked at any position i>0 (the
// warmup boundary) sees the same bits as a full replay.
func (s *Slice) PreDecode() *PreDecoded {
	meta := make([]isa.Decoded, len(s.Insts))
	prevLine := ^uint64(0)
	for i := range s.Insts {
		in := &s.Insts[i]
		d := isa.Decode(in)
		if line := in.PC >> 6; line != prevLine {
			d |= isa.DecNewLine
			prevLine = line
		}
		meta[i] = d
	}
	return &PreDecoded{Slice: s, Meta: meta}
}

// Digest returns a 64-bit FNV-1a-style content hash over the slice's
// identity and full instruction stream. Two slices with equal digests
// replay identically for cache purposes (pre-decoded streams, warm-state
// snapshots); the hash is deterministic across processes for a given
// stream but is not persisted, so its exact value is not part of any
// on-disk format.
func (s *Slice) Digest() uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	word := func(v uint64) {
		h = (h ^ v) * prime
	}
	str := func(v string) {
		word(uint64(len(v)))
		for i := 0; i < len(v); i++ {
			h = (h ^ uint64(v[i])) * prime
		}
	}
	str(s.Name)
	str(s.Suite)
	word(uint64(s.Warmup))
	word(math.Float64bits(s.Weight))
	word(uint64(int64(s.Cluster)))
	word(uint64(len(s.Insts)))
	for i := range s.Insts {
		in := &s.Insts[i]
		word(in.PC)
		word(uint64(in.Class) | uint64(in.Branch)<<8 | uint64(in.Size)<<16 |
			uint64(in.Dst)<<24 | uint64(in.Src1)<<32 | uint64(in.Src2)<<40 |
			boolBit(in.Taken)<<48)
		word(in.Target)
		word(in.Addr)
	}
	return h
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
