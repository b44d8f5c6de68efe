// Package core is the top-level simulator API: it assembles one Exynos
// M-series generation from its three subsystem configurations (branch
// front end, memory system, pipeline) and replays workload slices
// through it, producing the per-slice metrics every experiment consumes:
// IPC (Fig. 17), branch MPKI (Fig. 9), and average load latency
// (Fig. 16 / Table IV).
package core

import (
	"reflect"

	"exysim/internal/branch"
	"exysim/internal/mem"
	"exysim/internal/obs"
	"exysim/internal/pipeline"
	"exysim/internal/power"
	"exysim/internal/snapshot"
	"exysim/internal/trace"
)

// GenConfig bundles one generation's subsystem configurations plus the
// Table I product metadata.
type GenConfig struct {
	Name        string
	ProcessNode string
	ProductGHz  float64

	Branch branch.Config
	Mem    mem.Config
	Pipe   pipeline.Config
}

// Generations returns all six generations, M1 through M6.
func Generations() []GenConfig {
	meta := []struct {
		node string
		ghz  float64
	}{
		{"14nm", 2.6}, {"10nm LPE", 2.3}, {"10nm LPP", 2.7},
		{"8nm LPP", 2.7}, {"7nm", 2.8}, {"5nm", 2.8},
	}
	b := branch.Generations()
	m := mem.Generations()
	p := pipeline.Generations()
	out := make([]GenConfig, 6)
	for i := range out {
		out[i] = GenConfig{
			Name:        b[i].Name,
			ProcessNode: meta[i].node,
			ProductGHz:  meta[i].ghz,
			Branch:      b[i],
			Mem:         m[i],
			Pipe:        p[i],
		}
	}
	return out
}

// GenByName returns the named generation ("M1".."M6").
func GenByName(name string) (GenConfig, bool) {
	for _, g := range Generations() {
		if g.Name == name {
			return g, true
		}
	}
	return GenConfig{}, false
}

// Hypothetical derives a what-if generation from a shipped baseline by
// swapping the direction-predictor spec — the "M7" of a predictor-lab
// sweep. Everything else (BTBs, memory system, pipeline) is inherited
// from base, so population comparisons isolate the predictor change.
func Hypothetical(base GenConfig, name string, spec branch.PredictorSpec) GenConfig {
	g := base
	g.Name = name
	g.Branch.Name = name
	g.Branch.Predictor = spec
	return g
}

// Result is one slice's outcome on one generation.
type Result struct {
	Gen   string
	Slice string
	Suite string

	Insts  uint64
	Cycles uint64
	IPC    float64

	MPKI       float64
	AvgLoadLat float64

	// FetchEPKI is the front-end energy proxy per 1k instructions
	// (§IV-B/§IV-E/§VI power features); PowerBreakdown splits it by
	// structure.
	FetchEPKI      float64
	PowerBreakdown map[string]float64

	Front branch.Stats
	Mem   mem.Stats
	Pipe  pipeline.Result
}

// Simulator is one instantiated generation.
type Simulator struct {
	cfg   GenConfig
	core  *pipeline.Core
	meter *power.Meter

	// reg is built lazily on the first Registry call so that callers who
	// never ask for metrics (tight benchmark loops constructing a fresh
	// simulator per iteration) pay nothing for the observability layer.
	reg *obs.Registry
	// tracer is the installed cycle-event tracer (nil when disabled),
	// remembered so Reset can clear its ring along with the core.
	tracer *obs.Tracer
}

// NewSimulator builds a fresh, cold simulator for the generation.
func NewSimulator(cfg GenConfig) *Simulator {
	front := branch.NewFrontend(cfg.Branch)
	msys := mem.New(cfg.Mem)
	s := &Simulator{cfg: cfg, core: pipeline.New(cfg.Pipe, front, msys)}
	s.meter = power.NewMeter(power.DefaultModel())
	s.core.SetMeter(s.meter)
	return s
}

// Core exposes the pipeline (for ablations and deep stats).
func (s *Simulator) Core() *pipeline.Core { return s.core }

// Reset restores the simulator to the cold state NewSimulator returns,
// reusing every backing allocation: a subsequent Run over the same slice
// produces a bit-identical Result to a fresh simulator's. Registered
// metrics closures read live subsystem pointers, so a lazily built
// Registry stays valid across Reset; the registry is rebased and the
// tracer ring cleared so a recycled simulator's observability output
// (metric snapshots, cycle traces) covers exactly the next slice, not
// the pool lifetime.
func (s *Simulator) Reset() {
	s.core.Reset()
	// Clear the tracer ring before rebasing the registry: the
	// obs.trace_dropped counter reads the ring's drop count, so the ring
	// must be back at zero when the rebase captures counter baselines.
	s.tracer.Reset()
	if s.reg != nil {
		// The subsystems' raw counters were just zeroed; rebasing here
		// pins every registered counter at its post-Reset value so the
		// next Snapshot is indistinguishable from a fresh simulator's.
		s.reg.Reset()
	}
}

// stateCodec deep-copies simulator state for warm forking. The walk is
// rooted at the pipeline core, whose reachable graph — front end, memory
// system, μop cache, power meter — is exactly the mutable state the
// Reset() protocol inventories. Skip-listed as installed wiring rather
// than state, mirroring what Reset leaves in place: the cycle tracer
// (observability), the branch-target cipher (§V security hardening;
// stateless — its context is POD and walked normally), and the
// predictor geometries a PredictorSpec points to. Those are immutable
// configuration shared by every simulator built from one GenConfig, so
// restoring them would write memory other goroutines read while they
// construct simulators of the same generation.
var stateCodec = snapshot.NewCodec(
	reflect.TypeOf((*obs.Tracer)(nil)),
	reflect.TypeOf((*branch.TargetCipher)(nil)).Elem(),
	reflect.TypeOf((*branch.SHPConfig)(nil)),
	reflect.TypeOf((*branch.TAGEConfig)(nil)),
	reflect.TypeOf((*branch.ITTAGEConfig)(nil)),
)

// CaptureState deep-snapshots the simulator's mutable state — typically
// right after a slice's warmup, so sweeps can fork variants and reps
// from the warm state instead of re-warming. The image is immutable and
// safe to restore concurrently into any simulator of the same
// generation.
func (s *Simulator) CaptureState() (*snapshot.Image, error) {
	return stateCodec.Capture(s.core)
}

// RestoreState overwrites the simulator's state with a previously
// captured image. The simulator must be the same generation (same
// configuration-derived shape) as the captured one; a mismatch returns
// an error and leaves the instance suspect — Reset() or discard it.
// Observability baselines (a lazily built Registry) are not rebased:
// pooled sweep simulators do not snapshot registries, and callers that
// do should Reset() first.
func (s *Simulator) RestoreState(img *snapshot.Image) error {
	return stateCodec.Restore(img, s.core)
}

// Registry returns the simulator's metrics registry, building it on
// first use. Every subsystem publishes under its own scope: "pipe",
// "branch" (with "branch.src" per predictor source), "mem" (caches,
// TLBs, prefetchers, uncore, DRAM), "uoc", and "power"; "obs" carries
// the observability layer's own health (tracer ring drops).
func (s *Simulator) Registry() *obs.Registry {
	if s.reg == nil {
		r := obs.NewRegistry()
		root := r.Scope("")
		s.core.RegisterMetrics(root.Child("pipe"))
		s.core.Frontend().RegisterMetrics(root.Child("branch"))
		s.core.Mem().RegisterMetrics(root.Child("mem"))
		if u := s.core.UOC(); u != nil {
			u.RegisterMetrics(root.Child("uoc"))
		}
		s.meter.RegisterMetrics(root.Child("power"))
		// Tracer ring overwrites: nonzero means any exported cycle trace
		// is missing its oldest events. Reads the live tracer pointer, so
		// installing or clearing a tracer after first Snapshot still
		// reports correctly (nil tracer reads 0).
		root.Child("obs").Counter("trace_dropped", func() uint64 { return s.tracer.Dropped() })
		s.reg = r
	}
	return s.reg
}

// MetricsSnapshot materializes every registered metric (building the
// registry if needed). Counters reflect the last stats reset.
func (s *Simulator) MetricsSnapshot() obs.Snapshot {
	return s.Registry().Snapshot()
}

// SetTracer installs a cycle-event tracer across the pipeline, memory
// system, and DRAM (nil disables tracing everywhere).
func (s *Simulator) SetTracer(t *obs.Tracer) {
	s.tracer = t
	s.core.SetTracer(t)
}

// Config returns the generation this simulator instantiates.
func (s *Simulator) Config() GenConfig { return s.cfg }

// Run replays a slice: the warmup prefix trains all structures, stats
// reset, and the detailed region produces the result (§II's
// SimPoint-style methodology).
func (s *Simulator) Run(sl *trace.Slice) Result {
	sl.Reset()
	n := 0
	for {
		in, err := sl.Next()
		if err != nil {
			break
		}
		s.core.Step(&in)
		n++
		if n == sl.Warmup {
			s.core.ResetStats()
		}
	}
	return s.Snapshot(sl)
}

// Snapshot assembles a Result from the simulator's current accumulated
// state — used by Run and by callers that step the core manually (the
// cluster scheduler, timelines).
func (s *Simulator) Snapshot(sl *trace.Slice) Result {
	pr := s.core.Result()
	fr := s.core.Frontend().Stats()
	ms := s.core.Mem().Stats()
	return Result{
		Gen:            s.cfg.Name,
		Slice:          sl.Name,
		Suite:          sl.Suite,
		Insts:          pr.Insts,
		Cycles:         pr.Cycles,
		IPC:            pr.IPC,
		MPKI:           fr.MPKI(),
		AvgLoadLat:     ms.LoadLat.Mean(),
		FetchEPKI:      s.meter.EPKI(),
		PowerBreakdown: s.meter.Breakdown(),
		Front:          fr,
		Mem:            ms,
		Pipe:           pr,
	}
}

// RunSlice is the one-shot convenience: cold simulator, one slice.
func RunSlice(cfg GenConfig, sl *trace.Slice) Result {
	return NewSimulator(cfg).Run(sl)
}

// IntervalResult is one timeline sample of RunTimeline.
type IntervalResult struct {
	Interval int
	IPC      float64
	MPKI     float64
}

// RunTimeline replays the slice and reports IPC/MPKI per fixed interval
// — the phase-level view SimPoint clusters (§II). The whole slice is
// measured (no warmup reset), so interval 0 includes cold structures.
func (s *Simulator) RunTimeline(sl *trace.Slice, intervalInsts int) []IntervalResult {
	if intervalInsts <= 0 {
		intervalInsts = 10_000
	}
	sl.Reset()
	var out []IntervalResult
	n := 0
	lastCycles, lastMis := uint64(0), uint64(0)
	for {
		in, err := sl.Next()
		if err != nil {
			break
		}
		s.core.Step(&in)
		n++
		if n%intervalInsts == 0 {
			pr := s.core.Result()
			fr := s.core.Frontend().Stats()
			dCyc := pr.Cycles - lastCycles
			dMis := fr.Mispredicts - lastMis
			ir := IntervalResult{Interval: len(out)}
			if dCyc > 0 {
				ir.IPC = float64(intervalInsts) / float64(dCyc)
			}
			ir.MPKI = float64(dMis) / float64(intervalInsts) * 1000
			out = append(out, ir)
			lastCycles, lastMis = pr.Cycles, fr.Mispredicts
		}
	}
	return out
}
