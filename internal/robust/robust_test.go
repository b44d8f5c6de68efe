package robust

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"exysim/internal/core"
	"exysim/internal/trace"
	"exysim/internal/workload"
)

var tinySpec = workload.SuiteSpec{SlicesPerFamily: 1, InstsPerSlice: 8_000, WarmupFrac: 0.25, Seed: 0xE59}

// guarded is the retry attempt the RunWithRetryFunc tests share: a
// guarded full replay of sl under opts.
func guarded(sl *trace.Slice, opts Options) func(*core.Simulator) (core.Result, *SliceFailure) {
	return func(s *core.Simulator) (core.Result, *SliceFailure) { return RunGuarded(s, sl, opts) }
}

func TestRunGuardedMatchesRunBitIdentical(t *testing.T) {
	slices := workload.Suite(tinySpec)
	for _, g := range core.Generations() {
		ref := core.RunSlice(g, slices[0])
		got, fail := RunGuarded(core.NewSimulator(g), slices[0], Options{CheckInvariants: true})
		if fail != nil {
			t.Fatalf("%s: healthy slice failed: %v", g.Name, fail)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("%s: guarded result differs from Run:\n  run:     %+v\n  guarded: %+v", g.Name, ref, got)
		}
	}
}

func TestRunGuardedRecoversPanic(t *testing.T) {
	g := core.Generations()[0]
	sl := workload.Suite(tinySpec)[0]
	opts := Options{StepHook: func(n int) {
		if n == 100 {
			panic("boom at 100")
		}
	}}
	res, fail := RunGuarded(core.NewSimulator(g), sl, opts)
	if fail == nil {
		t.Fatal("injected panic not reported")
	}
	if fail.Kind != KindPanic {
		t.Fatalf("kind = %s, want %s", fail.Kind, KindPanic)
	}
	if !strings.Contains(fail.Err, "boom at 100") {
		t.Fatalf("error lost the panic value: %q", fail.Err)
	}
	if fail.Stack == "" {
		t.Fatal("panic failure missing stack trace")
	}
	if fail.Gen != g.Name || fail.Slice != sl.Name || fail.ConfigDigest == "" {
		t.Fatalf("failure not fully identified: %+v", fail)
	}
	if !reflect.DeepEqual(res, core.Result{}) {
		t.Fatal("failed run should return a zero result")
	}
}

func TestRunGuardedDeadline(t *testing.T) {
	g := core.Generations()[0]
	sl := workload.Suite(tinySpec)[0]
	opts := Options{
		Deadline:       5 * time.Millisecond,
		HeartbeatEvery: 64,
		StepHook: func(n int) {
			time.Sleep(200 * time.Microsecond) // 64 insts/heartbeat × 200µs ≫ 5ms
		},
	}
	_, fail := RunGuarded(core.NewSimulator(g), sl, opts)
	if fail == nil || fail.Kind != KindTimeout {
		t.Fatalf("stalled slice should trip the deadline, got %+v", fail)
	}
	if !strings.Contains(fail.Err, "deadline") {
		t.Fatalf("timeout error should name the deadline: %q", fail.Err)
	}
}

func TestRunGuardedInvariantQuarantine(t *testing.T) {
	g := core.Generations()[0]
	sl := workload.Suite(tinySpec)[0]
	opts := Options{
		CheckInvariants: true,
		ResultHook:      func(r *core.Result) { r.IPC = math.NaN() },
	}
	_, fail := RunGuarded(core.NewSimulator(g), sl, opts)
	if fail == nil || fail.Kind != KindInvariant {
		t.Fatalf("NaN IPC should quarantine as invariant violation, got %+v", fail)
	}
}

func TestRunGuardedCancelStopsMidSlice(t *testing.T) {
	g := core.Generations()[0]
	sl := workload.Suite(tinySpec)[0]
	cancel := make(chan struct{})
	stepped := 0
	opts := Options{
		HeartbeatEvery: 64,
		Cancel:         cancel,
		StepHook: func(n int) {
			stepped = n
			if n == 100 {
				close(cancel)
			}
		},
	}
	res, fail := RunGuarded(core.NewSimulator(g), sl, opts)
	if fail == nil || fail.Kind != KindCanceled {
		t.Fatalf("canceled run should report KindCanceled, got %+v", fail)
	}
	// The slice must stop at the next heartbeat, not run to completion.
	if stepped >= len(sl.Insts)-1 {
		t.Fatalf("cancellation did not stop the slice: stepped through %d of %d insts", stepped+1, len(sl.Insts))
	}
	if !reflect.DeepEqual(res, core.Result{}) {
		t.Fatal("canceled run should return a zero result")
	}
}

func TestRunGuardedNilCancelRuns(t *testing.T) {
	g := core.Generations()[0]
	sl := workload.Suite(tinySpec)[0]
	ref := core.RunSlice(g, sl)
	got, fail := RunGuarded(core.NewSimulator(g), sl, Options{Cancel: nil, CheckInvariants: true})
	if fail != nil {
		t.Fatalf("nil cancel channel must not abort: %v", fail)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Fatal("result with nil cancel differs from plain Run")
	}
}

func TestRunWithRetryDoesNotRetryCancel(t *testing.T) {
	g := core.Generations()[0]
	sl := workload.Suite(tinySpec)[0]
	cancel := make(chan struct{})
	close(cancel)
	builds := 0
	build := func() *core.Simulator { builds++; return core.NewSimulator(g) }
	_, sim, fails, ok := RunWithRetryFunc(nil, build, 5, guarded(sl, Options{Cancel: cancel, HeartbeatEvery: 64}))
	if ok {
		t.Fatal("canceled run must not report success")
	}
	if sim != nil {
		t.Fatal("canceled run should not return a pool-safe simulator")
	}
	if builds != 1 {
		t.Fatalf("cancellation was retried: %d builds, want 1", builds)
	}
	if len(fails) != 1 || fails[0].Kind != KindCanceled {
		t.Fatalf("want a single canceled record, got %+v", fails)
	}
}

func TestHeartbeatMaskRoundsUp(t *testing.T) {
	for _, tc := range []struct{ in, mask int }{
		{0, DefaultHeartbeat - 1},
		{1, 0},
		{2, 1},
		{3, 3},
		{64, 63},
		{100, 127},
	} {
		o := Options{HeartbeatEvery: tc.in}
		if got := o.heartbeatMask(); got != tc.mask {
			t.Errorf("heartbeatMask(%d) = %d, want %d", tc.in, got, tc.mask)
		}
	}
}

func TestBackoffBounded(t *testing.T) {
	// The ceiling is deterministic: 1ms doubling, capped at 50ms, never
	// shrinking, robust to absurd attempt counts.
	prev := time.Duration(0)
	for attempt := 1; attempt < 100; attempt++ {
		c := BackoffCeiling(attempt)
		if c <= 0 || c > 50*time.Millisecond {
			t.Fatalf("BackoffCeiling(%d) = %v outside (0, 50ms]", attempt, c)
		}
		if c < prev {
			t.Fatalf("BackoffCeiling(%d) = %v shrank from %v", attempt, c, prev)
		}
		prev = c
	}
	if c := BackoffCeiling(1); c != time.Millisecond {
		t.Fatalf("first ceiling = %v, want 1ms", c)
	}
}

func TestBackoffFullJitter(t *testing.T) {
	// Every draw stays within [0, ceiling], and the draws actually vary:
	// a fleet of workers sleeping Backoff(n) must not retry in lockstep.
	for attempt := 1; attempt <= 8; attempt++ {
		c := BackoffCeiling(attempt)
		seen := map[time.Duration]bool{}
		for i := 0; i < 200; i++ {
			d := Backoff(attempt)
			if d < 0 || d > c {
				t.Fatalf("Backoff(%d) = %v outside [0, %v]", attempt, d, c)
			}
			seen[d] = true
		}
		if len(seen) < 2 {
			t.Fatalf("Backoff(%d): 200 draws produced %d distinct values, want jitter", attempt, len(seen))
		}
	}
}

func TestRunWithRetryTransientFault(t *testing.T) {
	g := core.Generations()[0]
	sl := workload.Suite(tinySpec)[0]
	ref := core.RunSlice(g, sl)

	fired := false
	opts := Options{CheckInvariants: true, StepHook: func(n int) {
		if n == 50 && !fired {
			fired = true
			panic("transient")
		}
	}}
	build := func() *core.Simulator { return core.NewSimulator(g) }
	res, sim, fails, ok := RunWithRetryFunc(core.NewSimulator(g), build, 2, guarded(sl, opts))
	if !ok {
		t.Fatalf("transient fault should recover on retry: %+v", fails)
	}
	if sim == nil {
		t.Fatal("successful retry should return a pool-safe simulator")
	}
	if len(fails) != 1 || fails[0].Attempts != 1 {
		t.Fatalf("want one failure record for attempt 1, got %+v", fails)
	}
	if !reflect.DeepEqual(res, ref) {
		t.Fatal("retried result differs from a clean run")
	}
}

func TestRunWithRetryPersistentFaultQuarantines(t *testing.T) {
	g := core.Generations()[0]
	sl := workload.Suite(tinySpec)[0]
	opts := Options{StepHook: func(n int) {
		if n == 50 {
			panic("persistent")
		}
	}}
	build := func() *core.Simulator { return core.NewSimulator(g) }
	_, sim, fails, ok := RunWithRetryFunc(nil, build, 2, guarded(sl, opts))
	if ok {
		t.Fatal("persistent fault must not succeed")
	}
	if sim != nil {
		t.Fatal("no simulator should survive a quarantine")
	}
	if len(fails) != 3 { // initial + 2 retries
		t.Fatalf("attempts = %d, want 3", len(fails))
	}
	if last := fails[len(fails)-1]; last.Attempts != 3 || last.Kind != KindPanic {
		t.Fatalf("final record should carry the attempt count: %+v", last)
	}
}
