// Package robust is the fault-isolation layer for population sweeps:
// guarded slice execution that converts panics, livelocks, and
// silently-nonsensical results into structured, quarantinable failures
// instead of taking down (or tainting) a whole campaign. The paper's
// headline numbers come from a 4,026-slice sweep (§II); at that scale a
// run must survive one bad slice, one hung subsystem, or one corrupted
// pooled simulator and still report everything else.
//
// The package deliberately sits above internal/core and below
// internal/experiments: it knows how to run one slice safely, while the
// experiment harness decides pooling, retries, checkpointing, and
// reporting policy.
package robust

import (
	"fmt"
	"math/rand/v2"
	"runtime/debug"
	"time"

	"exysim/internal/core"
	"exysim/internal/obs"
	"exysim/internal/trace"
)

// FailureKind classifies why a slice was quarantined.
type FailureKind string

// Failure kinds.
const (
	// KindPanic: the step loop panicked; the simulator's internal state
	// is suspect and the instance must be discarded, not recycled.
	KindPanic FailureKind = "panic"
	// KindTimeout: the slice exceeded its deadline (livelock, stall, or
	// pathological slowdown) and was abandoned mid-run.
	KindTimeout FailureKind = "timeout"
	// KindInvariant: the slice completed but its result violates a
	// physical invariant (NaN IPC, negative latency, rate outside [0,1]).
	KindInvariant FailureKind = "invariant"
	// KindCanceled: the caller canceled the run (aborted HTTP request,
	// Ctrl-C, server drain) and the slice was abandoned cooperatively at
	// a heartbeat. Not a defect: cancellation is never retried and never
	// quarantined — the sweep simply stops.
	KindCanceled FailureKind = "canceled"
)

// SliceFailure is the structured quarantine record for one failed
// (generation, slice) attempt: enough to reproduce (config digest, slice
// id), diagnose (kind, error, stack), and account (attempts).
type SliceFailure struct {
	Gen        string      `json:"gen"`
	Slice      string      `json:"slice"`
	GenIndex   int         `json:"gen_index"`
	SliceIndex int         `json:"slice_index"`
	Kind       FailureKind `json:"kind"`
	Err        string      `json:"error"`
	// Stack is the goroutine stack at recovery time (panics only).
	Stack string `json:"stack,omitempty"`
	// ConfigDigest pins the generation configuration that failed.
	ConfigDigest string `json:"config_digest,omitempty"`
	// Attempts is how many runs (initial + retries) were made before the
	// slice was quarantined.
	Attempts int `json:"attempts,omitempty"`
}

func (f *SliceFailure) String() string {
	return fmt.Sprintf("%s/%s: %s: %s", f.Gen, f.Slice, f.Kind, f.Err)
}

// StepHook runs before every instruction of a guarded run; n is the
// instruction's zero-based position in the slice. Production runs leave
// it nil — the fault-injection harness uses it to panic or stall at a
// chosen point. A hook sees only the position, never the instruction:
// the stream it would see is shared read-only by every simulator
// replaying the slice.
type StepHook func(n int)

// ResultHook runs over the completed Result before the invariant check —
// the fault-injection seam for NaN/negative-counter corruption, and an
// extension point for custom per-slice validation.
type ResultHook func(r *core.Result)

// DefaultHeartbeat is the instruction interval between deadline checks.
// It is a power of two so the check compiles to a mask, keeping the
// watchdog off the critical path: one predictable branch per
// instruction, one clock read per heartbeat, zero allocations.
const DefaultHeartbeat = 4096

// Options configures one guarded slice run.
type Options struct {
	// Deadline bounds the wall-clock time of one slice; 0 disables the
	// watchdog. The check is cooperative — it fires at the next
	// heartbeat, so a slice can overshoot by up to HeartbeatEvery
	// instructions' worth of work.
	Deadline time.Duration
	// HeartbeatEvery is the instruction interval between deadline
	// checks; it is rounded up to a power of two. 0 means
	// DefaultHeartbeat.
	HeartbeatEvery int
	// CheckInvariants runs Check over the completed result and converts
	// violations into KindInvariant failures.
	CheckInvariants bool
	// Cancel aborts the run cooperatively when closed (typically a
	// context's Done channel). Like the deadline it is polled at
	// heartbeat granularity, so a canceled slice stops within
	// HeartbeatEvery instructions instead of running to completion. A
	// nil channel disables the check.
	Cancel <-chan struct{}
	// HeartbeatHist, when non-nil, records the wall-clock microseconds
	// between consecutive watchdog heartbeats. The distribution is the
	// liveness signal of the sweep fabric: a healthy slice beats every
	// few hundred microseconds, while a fat tail means some instruction
	// window is stalling the step loop. Recording is lock-free and
	// allocation-free; a nil histogram adds no clock reads at all.
	HeartbeatHist *obs.Histogram
	// StepHook / ResultHook are fault-injection and extension seams;
	// both are nil in production runs.
	StepHook   StepHook
	ResultHook ResultHook
	// AfterWarmup fires once, immediately after the warmup boundary's
	// stats reset. It never fires for a slice without a warmup prefix,
	// nor for a run that starts at the boundary. No sweep sets it: its
	// only non-test caller is the benchmark's layer rows
	// (perfbench/layers.go), which time the measured region from it and
	// capture the simulator there (core.Simulator.CaptureState).
	AfterWarmup func()
}

func (o *Options) heartbeatMask() int {
	hb := o.HeartbeatEvery
	if hb <= 0 {
		hb = DefaultHeartbeat
	}
	// Round up to a power of two so the loop tests n&mask instead of n%hb.
	p := 1
	for p < hb {
		p <<= 1
	}
	return p - 1
}

// RunGuarded replays sl on sim under opts, reproducing exactly the
// warmup/measure protocol of core.Simulator.Run: for a healthy slice the
// returned Result is bit-identical to sim.Run(sl). It pre-decodes sl and
// runs RunGuardedDecoded from 0; sweeps that replay one slice many times
// keep the pre-decoded stream and call RunGuardedDecoded directly.
func RunGuarded(sim *core.Simulator, sl *trace.Slice, opts Options) (core.Result, *SliceFailure) {
	return RunGuardedDecoded(sim, sl.PreDecode(), 0, opts)
}

// RunGuardedDecoded is the guarded step loop: it replays a pre-decoded
// stream on sim under opts, indexing the slice's shared read-only
// instruction storage and its compiled decode metadata directly, with no
// per-instruction copy and no heap traffic. from is the stream position
// to start at: 0 for a full warmup+measure replay, as every sweep runs,
// or the slice's Warmup for a run on a simulator the caller just
// restored from a warm-state image captured at the boundary (its stats
// reset happened before the capture, so none is performed) — what the
// benchmark's snapshot.* layer rows and the codec's tests do.
//
// On failure it returns a SliceFailure (with Gen/Slice/ConfigDigest
// filled in) and the simulator must be treated as corrupted: Reset() is
// not enough after a panic or timeout, because internal state may have
// been torn mid-update — discard the instance.
func RunGuardedDecoded(sim *core.Simulator, pd *trace.PreDecoded, from int, opts Options) (res core.Result, fail *SliceFailure) {
	sl := pd.Slice
	cfg := sim.Config()
	mkFail := func(kind FailureKind, err string, stack string) *SliceFailure {
		return &SliceFailure{
			Gen: cfg.Name, Slice: sl.Name,
			Kind: kind, Err: err, Stack: stack,
			ConfigDigest: obs.ConfigDigest(cfg),
		}
	}
	defer func() {
		if p := recover(); p != nil {
			res = core.Result{}
			fail = mkFail(KindPanic, fmt.Sprint(p), string(debug.Stack()))
		}
	}()

	start := time.Now()
	mask := opts.heartbeatMask()
	deadline := opts.Deadline
	cancel := opts.Cancel
	hbHist := opts.HeartbeatHist
	hook := opts.StepHook
	lastBeat := start

	c := sim.Core()
	insts, meta := sl.Insts, pd.Meta
	warm := sl.Warmup
	n := 0
	for i := from; i < len(insts); i++ {
		if hook != nil {
			hook(i)
		}
		c.StepDecoded(&insts[i], meta[i])
		n++
		if i+1 == warm {
			c.ResetStats()
			if opts.AfterWarmup != nil {
				opts.AfterWarmup()
			}
		}
		if n&mask == 0 {
			if hbHist != nil {
				now := time.Now()
				hbHist.Observe(uint64(now.Sub(lastBeat).Microseconds()))
				lastBeat = now
			}
			if cancel != nil {
				select {
				case <-cancel:
					return core.Result{}, mkFail(KindCanceled,
						fmt.Sprintf("run canceled after %d instructions", n), "")
				default:
				}
			}
			if deadline > 0 && time.Since(start) > deadline {
				return core.Result{}, mkFail(KindTimeout,
					fmt.Sprintf("slice exceeded %v deadline after %d instructions", deadline, n), "")
			}
		}
	}
	res = sim.Snapshot(sl)
	if opts.ResultHook != nil {
		opts.ResultHook(&res)
	}
	if opts.CheckInvariants {
		if err := Check(&res); err != nil {
			return core.Result{}, mkFail(KindInvariant, err.Error(), "")
		}
	}
	return res, nil
}

// Backoff returns the sleep before retry attempt (1-based): full jitter
// over an exponential ceiling — uniform in [0, min(1ms·2^(attempt-1),
// 50ms)]. The ceiling bounds how long a burst of failures can stall a
// worker; the jitter desynchronizes a fleet of workers retrying the
// same flaky resource, which would otherwise thunder the coordinator in
// lockstep waves.
func Backoff(attempt int) time.Duration {
	return time.Duration(rand.Int64N(int64(BackoffCeiling(attempt)) + 1))
}

// BackoffCeiling returns the upper bound Backoff draws from for the
// attempt: 1ms doubling per attempt, capped at 50ms.
func BackoffCeiling(attempt int) time.Duration {
	// 2^6 ms already exceeds the cap; clamping the shift keeps large
	// attempt counts from overflowing the duration to zero or negative.
	if attempt > 6 {
		return 50 * time.Millisecond
	}
	d := time.Millisecond << uint(attempt-1)
	if d > 50*time.Millisecond {
		d = 50 * time.Millisecond
	}
	return d
}

// RunWithRetryFunc runs one slice guarded, retrying with a fresh
// simulator (bounded backoff between attempts) up to retries extra
// times. run(sim) performs one isolated execution. The first attempt
// uses sim if non-nil (a pooled instance run resets before use); every
// retry builds a fresh one via build, because the dominant cause of a
// retryable failure is exactly a corrupted pooled instance.
//
// A KindCanceled failure short-circuits: cancellation is a caller
// decision, not a transient fault, so it is returned immediately with no
// further attempts and no backoff sleep.
//
// Returns the result, the simulator that produced it (safe to keep
// pooling; nil if every attempt failed), the per-attempt failures
// (empty on first-attempt success; the last entry carries the final
// Attempts count), and whether the slice ultimately succeeded.
func RunWithRetryFunc(sim *core.Simulator, build func() *core.Simulator, retries int, run func(*core.Simulator) (core.Result, *SliceFailure)) (core.Result, *core.Simulator, []SliceFailure, bool) {
	var failures []SliceFailure
	for attempt := 1; ; attempt++ {
		if sim == nil {
			sim = build()
		}
		res, fail := run(sim)
		if fail == nil {
			return res, sim, failures, true
		}
		fail.Attempts = attempt
		failures = append(failures, *fail)
		sim = nil // discard: possibly corrupted
		if fail.Kind == KindCanceled || attempt > retries {
			return core.Result{}, nil, failures, false
		}
		time.Sleep(Backoff(attempt))
	}
}
