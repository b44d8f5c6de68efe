// Package faultinject is the test harness for the robustness layer: it
// manufactures exactly the failures internal/robust exists to contain —
// panics mid-slice, livelocks that must trip the watchdog, NaN/negative
// results that must trip the invariant checker, and truncated or
// corrupted trace bytes that must surface as structured decode errors.
// Nothing here belongs in a production run; the hooks plug into
// robust.Options and the byte-level helpers feed the trace decoder
// tests.
package faultinject

import (
	"math"
	"sync/atomic"
	"time"

	"exysim/internal/core"
	"exysim/internal/trace"
)

// PanicAt returns a step hook that panics every time instruction n is
// reached — a persistent fault: retries with fresh simulators keep
// failing, so the slice must end up quarantined.
func PanicAt(n int) func(int) {
	return func(i int) {
		if i == n {
			panic("faultinject: injected panic")
		}
	}
}

// PanicOnce returns a step hook that panics the first time instruction n
// is reached and never again — a transient fault: the retry on a fresh
// simulator must succeed and produce a bit-identical result.
func PanicOnce(n int) func(int) {
	var fired atomic.Bool
	return func(i int) {
		if i == n && fired.CompareAndSwap(false, true) {
			panic("faultinject: injected transient panic")
		}
	}
}

// Stall returns a step hook that sleeps d on every instruction from
// inst n onward — a livelock stand-in that makes forward progress
// arbitrarily slow so the per-slice deadline must fire.
func Stall(n int, d time.Duration) func(int) {
	return func(i int) {
		if i >= n {
			time.Sleep(d)
		}
	}
}

// NaNIPC corrupts a completed result with a NaN IPC — the classic
// silent-poison value the invariant checker must quarantine.
func NaNIPC(r *core.Result) { r.IPC = math.NaN() }

// NegativeLoadLat corrupts a completed result with a negative average
// load latency.
func NegativeLoadLat(r *core.Result) { r.AvgLoadLat = -1 }

// CounterOverflow corrupts a completed result as an underflowed counter
// would: mispredicts exceeding the branch count.
func CounterOverflow(r *core.Result) { r.Front.Mispredicts = r.Front.Branches + 1 }

// TruncateSlice returns a copy of sl cut to its first n instructions
// (sharing the backing array). The cut tears control flow at the
// boundary, modelling a trace file that lost its tail.
func TruncateSlice(sl *trace.Slice, n int) *trace.Slice {
	if n > len(sl.Insts) {
		n = len(sl.Insts)
	}
	warm := sl.Warmup
	if warm > n {
		warm = n
	}
	return &trace.Slice{Name: sl.Name, Suite: sl.Suite, Warmup: warm, Insts: sl.Insts[:n]}
}

// Truncate returns the first n bytes of an encoded trace — a download or
// copy that died partway.
func Truncate(data []byte, n int) []byte {
	if n > len(data) {
		n = len(data)
	}
	return data[:n]
}

// FlipByte returns a copy of data with the byte at off XORed with mask —
// single-byte corruption in an encoded trace.
func FlipByte(data []byte, off int, mask byte) []byte {
	out := make([]byte, len(data))
	copy(out, data)
	if off >= 0 && off < len(out) {
		out[off] ^= mask
	}
	return out
}
