// Fault-injection tests for the population sweep's robustness envelope:
// each acceptance scenario from the robustness layer — panic quarantine,
// deadline trip, invariant catch, retry recovery, and checkpoint/resume
// — runs against the real sweep with faults injected into exactly one
// (generation, slice) pair.
package experiments

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"exysim/internal/obs"
	"exysim/internal/robust"
	"exysim/internal/robust/faultinject"
	"exysim/internal/workload"
)

// robustPop is smaller than tinyPop: these tests run several sweeps each.
var robustPop = workload.SuiteSpec{SlicesPerFamily: 1, InstsPerSlice: 6_000, WarmupFrac: 0.25, Seed: 0xE59}

// hookOne installs hook on exactly the (tg, ts) pair.
func hookOne[H any](tg, ts int, hook H) func(g, s int) H {
	return func(g, s int) H {
		var zero H
		if g == tg && s == ts {
			return hook
		}
		return zero
	}
}

func TestInjectedPanicQuarantinesOnlyThatSlice(t *testing.T) {
	clean := mustRun(t, robustPop)
	tg, ts := 2, 1
	p, err := Run(context.Background(), robustPop,
		WithStepHooks(hookOne(tg, ts, robust.StepHook(faultinject.PanicAt(100)))))
	if err != nil {
		t.Fatal(err)
	}

	if len(p.Failures) != 1 {
		t.Fatalf("failures = %d, want exactly 1", len(p.Failures))
	}
	f := p.Failures[0]
	if f.Kind != robust.KindPanic || f.GenIndex != tg || f.SliceIndex != ts {
		t.Fatalf("wrong quarantine record: %+v", f)
	}
	if f.Stack == "" || f.ConfigDigest == "" {
		t.Fatalf("quarantine record missing stack/digest: %+v", f)
	}

	// The sweep completed: every other pair is bit-identical to a clean run.
	for g := range p.Results {
		for s := range p.Results[g] {
			if g == tg && s == ts {
				if !p.Failed[g][s] {
					t.Fatal("faulted pair not marked failed")
				}
				continue
			}
			if p.Failed[g][s] {
				t.Fatalf("healthy pair (%d,%d) quarantined", g, s)
			}
			if !reflect.DeepEqual(p.Results[g][s], clean.Results[g][s]) {
				t.Fatalf("pair (%d,%d) differs from clean run after isolated fault", g, s)
			}
		}
	}

	// Aggregates must exclude the quarantined pair, not average in zeros.
	means := p.Means(MetricIPC)
	for g, v := range means {
		if v <= 0 {
			t.Fatalf("gen %d mean IPC %v after quarantine", g, v)
		}
	}
	cleanMeans := clean.Means(MetricIPC)
	if means[tg] == cleanMeans[tg] {
		t.Fatal("quarantined slice should shift its generation's mean")
	}
	for g := range means {
		if g != tg && means[g] != cleanMeans[g] {
			t.Fatalf("gen %d mean changed without a fault", g)
		}
	}

	rep := p.FailureReport()
	if !strings.Contains(rep, "panic") || !strings.Contains(rep, f.Slice) {
		t.Fatalf("failure report should list the quarantined slice: %q", rep)
	}

	m := p.Manifest("test")
	if m.Robustness == nil || m.Robustness.Panics != 1 || m.Robustness.Failures != 1 {
		t.Fatalf("manifest robustness block wrong: %+v", m.Robustness)
	}
}

func TestInjectedLivelockTripsDeadline(t *testing.T) {
	tg, ts := 0, 0
	// The watchdog checks every DefaultHeartbeat (4096) instructions, so
	// 1ms per instruction accumulates ~4s by the first heartbeat — far
	// past the 2s deadline. The deadline is deliberately generous: a
	// healthy 6k-instruction slice finishes in milliseconds even under
	// the race detector on a loaded machine, so only the stalled slice
	// can trip it.
	p, err := Run(context.Background(), robustPop,
		WithSliceDeadline(2*time.Second),
		WithStepHooks(hookOne(tg, ts, robust.StepHook(faultinject.Stall(0, time.Millisecond)))))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Failures) != 1 || p.Failures[0].Kind != robust.KindTimeout {
		t.Fatalf("want one timeout quarantine, got %+v", p.Failures)
	}
	if p.Failures[0].GenIndex != tg || p.Failures[0].SliceIndex != ts {
		t.Fatalf("wrong pair quarantined: %+v", p.Failures[0])
	}
	for g := range p.Failed {
		for s := range p.Failed[g] {
			if p.Failed[g][s] != (g == tg && s == ts) {
				t.Fatalf("quarantine leaked to (%d,%d)", g, s)
			}
		}
	}
}

func TestInjectedNaNCaughtByInvariantChecker(t *testing.T) {
	tg, ts := 1, 2
	p, err := Run(context.Background(), robustPop,
		WithResultHooks(hookOne(tg, ts, robust.ResultHook(faultinject.NaNIPC))))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Failures) != 1 || p.Failures[0].Kind != robust.KindInvariant {
		t.Fatalf("want one invariant quarantine, got %+v", p.Failures)
	}
	// The poison value must not leak into any aggregate.
	for _, m := range []Metric{MetricIPC, MetricMPKI, MetricLoadLat} {
		for g, v := range p.Means(m) {
			if v != v {
				t.Fatalf("NaN leaked into gen %d mean", g)
			}
		}
	}
}

func TestNegativeCounterCaughtByInvariantChecker(t *testing.T) {
	p, err := Run(context.Background(), robustPop,
		WithResultHooks(hookOne(3, 0, robust.ResultHook(faultinject.CounterOverflow))))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Failures) != 1 || p.Failures[0].Kind != robust.KindInvariant {
		t.Fatalf("want one invariant quarantine, got %+v", p.Failures)
	}
	if !strings.Contains(p.Failures[0].Err, "mispredicts") {
		t.Fatalf("violation should name the counter: %q", p.Failures[0].Err)
	}
}

func TestTransientFaultRecoversViaRetry(t *testing.T) {
	clean := mustRun(t, robustPop)
	tg, ts := 4, 3
	p, err := Run(context.Background(), robustPop,
		WithRetries(2),
		WithStepHooks(hookOne(tg, ts, robust.StepHook(faultinject.PanicOnce(200)))))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Failures) != 0 {
		t.Fatalf("recovered fault should leave no quarantine: %+v", p.Failures)
	}
	if p.Retries != 1 {
		t.Fatalf("retries = %d, want 1", p.Retries)
	}
	for g := range p.Results {
		for s := range p.Results[g] {
			if !reflect.DeepEqual(p.Results[g][s], clean.Results[g][s]) {
				t.Fatalf("pair (%d,%d) differs from clean run after retry", g, s)
			}
		}
	}
}

func TestCheckpointResumeBitIdenticalMeans(t *testing.T) {
	clean := mustRun(t, robustPop)
	path := filepath.Join(t.TempDir(), "sweep.jsonl")

	// First run: one pair fails persistently, everything else checkpoints.
	tg, ts := 5, 2
	p1, err := Run(context.Background(), robustPop,
		WithCheckpoint(path),
		WithStepHooks(hookOne(tg, ts, robust.StepHook(faultinject.PanicAt(50)))))
	if err != nil {
		t.Fatal(err)
	}
	if len(p1.Failures) != 1 {
		t.Fatalf("setup: want the injected failure, got %+v", p1.Failures)
	}

	// Second run resumes: only the failed pair is re-simulated (now
	// healthy), the rest restore from the checkpoint.
	p2, err := Run(context.Background(), robustPop,
		WithCheckpoint(path), WithResume())
	if err != nil {
		t.Fatal(err)
	}
	total := len(p2.Gens) * len(p2.Slices)
	if p2.Resumed != total-1 {
		t.Fatalf("resumed = %d, want %d", p2.Resumed, total-1)
	}
	if len(p2.Failures) != 0 {
		t.Fatalf("resumed run should be clean: %+v", p2.Failures)
	}

	// The resumed sweep is bit-identical to an uninterrupted one: every
	// per-slice result and every population mean, compared exactly.
	for g := range p2.Results {
		for s := range p2.Results[g] {
			if !reflect.DeepEqual(p2.Results[g][s], clean.Results[g][s]) {
				t.Fatalf("resumed pair (%d,%d) differs from uninterrupted run", g, s)
			}
		}
	}
	for _, m := range []Metric{MetricIPC, MetricMPKI, MetricLoadLat, MetricEPKI} {
		a, b := clean.Means(m), p2.Means(m)
		for g := range a {
			if a[g] != b[g] {
				t.Fatalf("gen %d mean differs after resume: %v vs %v", g, a[g], b[g])
			}
		}
	}

	if m := p2.Manifest("test"); m.Robustness == nil || m.Robustness.ResumedSlices != total-1 {
		t.Fatalf("manifest should record resumed slices: %+v", m.Robustness)
	}
}

// TestResumedProgressBarEndsAtTotal: a resumed sweep's first progress
// report carries the cells its checkpoint restored, so a bar driven by
// the hook (exysim --progress --resume) ends at total/total although
// the sweep simulates only the rest.
func TestResumedProgressBarEndsAtTotal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	if _, err := Run(context.Background(), robustPop, WithCheckpoint(path),
		WithStepHooks(hookOne(1, 1, robust.StepHook(faultinject.PanicAt(50))))); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	bar := obs.NewProgress(&out, "resume")
	p, err := Run(context.Background(), robustPop, WithCheckpoint(path), WithResume(), WithProgressFunc(bar.Report))
	if err != nil {
		t.Fatal(err)
	}
	bar.Finish()
	total := len(p.Gens) * len(p.Slices)
	if p.Resumed != total-1 {
		t.Fatalf("resumed %d cells, want %d", p.Resumed, total-1)
	}
	last := out.String()[strings.LastIndex(out.String(), "\r"):]
	if want := fmt.Sprintf("\rresume: %d/%d (100%%)", total, total); !strings.HasPrefix(last, want) {
		t.Fatalf("resumed bar ends at %q, want %q", last, want)
	}
}

func TestCheckpointMismatchedSpecRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	if _, err := Run(context.Background(), robustPop, WithCheckpoint(path)); err != nil {
		t.Fatal(err)
	}
	other := robustPop
	other.Seed++
	_, err := Run(context.Background(), other, WithCheckpoint(path), WithResume())
	if err == nil {
		t.Fatal("resuming a different campaign's checkpoint must fail")
	}
}
