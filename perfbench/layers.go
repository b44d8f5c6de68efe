package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"exysim/internal/branch"
	"exysim/internal/core"
	"exysim/internal/experiments"
	"exysim/internal/isa"
	"exysim/internal/mem"
	"exysim/internal/robust"
	"exysim/internal/simpoint"
	"exysim/internal/trace"
	"exysim/internal/tracestore"
	"exysim/internal/workload"
)

// reenact is sweep_cold's traced op. experiments.Run is the only public
// call an untraced op makes, so the traced op performs the same sweep
// through the layers' own public functions, with a span on each call:
// workload.Suite, then per (generation, slice) pair, generation-major
// over GOMAXPROCS workers each keeping one simulator per generation as
// Run does, Slice.PreDecode on first use, core.NewSimulator or Reset,
// and robust.RunGuardedDecoded from 0. It returns the same population
// run Run would, and how many simulators it built.
func reenact(t *tracer, op int, spec workload.SuiteSpec) (*experiments.PopulationRun, int) {
	opSpan := t.begin("bench", "op", "client", op, -1)
	var slices []*trace.Slice
	t.call("workload", "Suite", "client", op, opSpan, func() { slices = workload.Suite(spec) })
	gens := core.Generations()
	p := &experiments.PopulationRun{Spec: spec.Normalize(), Gens: gens, Slices: slices}
	p.Results = make([][]core.Result, len(gens))
	p.Failed = make([][]bool, len(gens))
	for g := range gens {
		p.Results[g] = make([]core.Result, len(slices))
		p.Failed[g] = make([]bool, len(slices))
	}
	type job struct{ g, s int }
	jobs := make(chan job)
	var (
		mu    sync.Mutex // guards pds, p.Failures, built
		pds   = make(map[int]*trace.PreDecoded)
		built int
		wg    sync.WaitGroup
	)
	workers := runtime.GOMAXPROCS(0)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(lane string) {
			defer wg.Done()
			sims := make([]*core.Simulator, len(gens))
			for j := range jobs {
				mu.Lock()
				pd := pds[j.s]
				if pd == nil {
					t.call("trace", "PreDecode", lane, op, opSpan, func() { pd = slices[j.s].PreDecode() })
					pds[j.s] = pd
				}
				mu.Unlock()
				if sims[j.g] == nil {
					t.call("core", "NewSimulator", lane, op, opSpan, func() { sims[j.g] = core.NewSimulator(gens[j.g]) })
					mu.Lock()
					built++
					mu.Unlock()
				} else {
					t.call("core", "Reset", lane, op, opSpan, sims[j.g].Reset)
				}
				var res core.Result
				var fail *robust.SliceFailure
				t.call("pipeline", "RunGuardedDecoded", lane, op, opSpan, func() {
					res, fail = robust.RunGuardedDecoded(sims[j.g], pd, 0, robust.Options{CheckInvariants: true})
				})
				if fail != nil {
					sims[j.g] = nil // possibly torn: never reuse
					mu.Lock()
					p.Failed[j.g][j.s] = true
					p.Failures = append(p.Failures, *fail)
					mu.Unlock()
					continue
				}
				p.Results[j.g][j.s] = res
			}
		}(fmt.Sprintf("worker-%d", w))
	}
	for g := range gens {
		for s := range slices {
			jobs <- job{g, s}
		}
	}
	close(jobs)
	wg.Wait()
	for g := range gens {
		for s := range slices {
			p.TotalInsts += p.Results[g][s].Insts
		}
	}
	t.end(opSpan)
	return p, built
}

// genReplay holds one generation's standalone layer measurements.
type genReplay struct {
	constructMs, resetMs        float64
	captureMs, restoreMs, imgMB float64
	stepNs, classicNs           float64
	branchNs, memNsPerInst      float64
	memNsPerAccess, bareNs      float64
	guardNs, predecodeNs        float64
	measuredInsts, totalInsts   int
}

// replaySlices picks n slices spread over the population's families.
func replaySlices(all []*trace.Slice, n int) []*trace.Slice {
	out := make([]*trace.Slice, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, all[i*len(all)/n])
	}
	return out
}

// replayGen measures one generation's layers standalone over slices,
// each call a span on the generation's replay lane:
//
//   - core.NewSimulator and Reset (after a full replay), in ms;
//   - robust.RunGuardedDecoded from 0, timing only the measured region
//     after the AfterWarmup mark, in ns per measured instruction;
//   - CaptureState at the warmup boundary, RestoreState into a second
//     simulator, and the image size;
//   - with classic, robust.RunGuarded over a slice cursor;
//   - with bare, a bare Core().StepDecoded loop over the same region,
//     whose difference from RunGuardedDecoded is the guard's cost;
//   - branch.NewFrontend(cfg.Branch) stepped over the slice in program
//     order, the calls the pipeline makes;
//   - mem.New(cfg.Mem) fed the slice's FetchInst/Load/Store stream on a
//     synthetic clock that advances at the slice's measured CPI on this
//     generation. Prefetch and DRAM timing still differ from the
//     in-pipeline run, so this is an estimate.
func replayGen(t *tracer, cfg core.GenConfig, slices []*trace.Slice, classic, bare bool) genReplay {
	var r genReplay
	var construct, reset, capture, restore, images []float64
	var stepNs, classicNs, bareNs, branchNs, memNs, predecodeNs float64
	var accesses int
	lane := "replay-" + cfg.Name
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	for _, sl := range slices {
		var pd *trace.PreDecoded
		t0 := time.Now()
		t.call("trace", "PreDecode", lane, -1, -1, func() { pd = sl.PreDecode() })
		predecodeNs += float64(time.Since(t0).Nanoseconds())
		measured := len(sl.Insts) - sl.Warmup
		r.measuredInsts += measured

		var sim *core.Simulator
		t0 = time.Now()
		t.call("core", "NewSimulator", lane, -1, -1, func() { sim = core.NewSimulator(cfg) })
		construct = append(construct, ms(time.Since(t0)))

		var mark time.Time
		var res core.Result
		t.call("pipeline", "RunGuardedDecoded", lane, -1, -1, func() {
			res, _ = robust.RunGuardedDecoded(sim, pd, 0, robust.Options{CheckInvariants: true, AfterWarmup: func() { mark = time.Now() }})
		})
		stepNs += float64(time.Since(mark).Nanoseconds())
		cpi := ratio(float64(res.Cycles), float64(res.Insts))

		t0 = time.Now()
		t.call("core", "Reset", lane, -1, -1, sim.Reset)
		reset = append(reset, ms(time.Since(t0)))

		t.call("pipeline", "RunGuardedDecoded+capture", lane, -1, -1, func() {
			robust.RunGuardedDecoded(sim, pd, 0, robust.Options{AfterWarmup: func() {
				c0 := time.Now()
				id := t.begin("snapshot", "CaptureState", lane, -1, -1)
				img, err := sim.CaptureState()
				t.end(id)
				if err != nil {
					return // no image: the capture and restore rows skip this slice
				}
				capture = append(capture, ms(time.Since(c0)))
				images = append(images, float64(img.Bytes())/(1<<20))
				other := core.NewSimulator(cfg)
				c0 = time.Now()
				id = t.begin("snapshot", "RestoreState", lane, -1, -1)
				err = other.RestoreState(img)
				t.end(id)
				if err == nil {
					restore = append(restore, ms(time.Since(c0)))
				}
			}})
		})

		if classic {
			sim.Reset()
			cur := sl.Cursor()
			t.call("pipeline", "RunGuarded", lane, -1, -1, func() {
				robust.RunGuarded(sim, &cur, robust.Options{CheckInvariants: true, AfterWarmup: func() { mark = time.Now() }})
			})
			classicNs += float64(time.Since(mark).Nanoseconds())
		}
		if bare {
			sim.Reset()
			c := sim.Core()
			t.call("pipeline", "StepDecoded", lane, -1, -1, func() {
				for i := range sl.Insts {
					c.StepDecoded(&sl.Insts[i], pd.Meta[i])
					if i+1 == sl.Warmup {
						c.ResetStats()
						mark = time.Now()
					}
				}
			})
			bareNs += float64(time.Since(mark).Nanoseconds())
		}

		fe := branch.NewFrontend(cfg.Branch)
		t.call("branch", "Frontend.Step", lane, -1, -1, func() {
			for i := range sl.Insts {
				if i == sl.Warmup {
					mark = time.Now()
				}
				fe.Step(&sl.Insts[i])
			}
		})
		branchNs += float64(time.Since(mark).Nanoseconds())

		m := mem.New(cfg.Mem)
		t.call("mem", "System", lane, -1, -1, func() {
			for i := range sl.Insts {
				if i == sl.Warmup {
					mark = time.Now()
				}
				in := &sl.Insts[i]
				now := uint64(float64(i) * cpi)
				if pd.Meta[i]&isa.DecNewLine != 0 {
					m.FetchInst(in.PC, now)
					if i >= sl.Warmup {
						accesses++
					}
				}
				switch in.Class {
				case isa.Load:
					m.Load(in.PC, in.Addr, now, false)
				case isa.Store:
					m.Store(in.PC, in.Addr, now)
				default:
					continue
				}
				if i >= sl.Warmup {
					accesses++
				}
			}
		})
		memNs += float64(time.Since(mark).Nanoseconds())
		r.totalInsts += len(sl.Insts)
	}
	n := float64(r.measuredInsts)
	r.constructMs, r.resetMs = median(construct), median(reset)
	r.captureMs, r.restoreMs = median(capture), median(restore)
	r.imgMB = median(images)
	r.stepNs, r.classicNs, r.bareNs = stepNs/n, classicNs/n, bareNs/n
	if bare {
		r.guardNs = r.stepNs - r.bareNs
	}
	r.branchNs, r.memNsPerInst = branchNs/n, memNs/n
	r.memNsPerAccess = ratio(memNs, float64(accesses))
	r.predecodeNs = predecodeNs / float64(r.totalInsts)
	return r
}

// setReplays reports the per-generation replay figures; gens absent from
// rs read 0.
func setReplays(rep *report, rs map[string]genReplay) {
	for _, g := range layerGens {
		r := rs[g]
		rep.set("core.construct_ms."+g, r.constructMs)
		rep.set("core.reset_ms."+g, r.resetMs)
		rep.set("snapshot.capture_ms."+g, r.captureMs)
		rep.set("snapshot.restore_ms."+g, r.restoreMs)
		rep.set("snapshot.image_mb."+g, r.imgMB)
		rep.set("step.ns_per_inst."+g, r.stepNs)
		rep.set("branch.ns_per_inst."+g, r.branchNs)
		rep.set("mem.ns_per_access."+g, r.memNsPerAccess)
		self := 0.0
		if r.stepNs > 0 {
			self = r.stepNs - r.branchNs - r.memNsPerInst
		}
		rep.set("pipeline.self_ns_per_inst."+g, self)
	}
	rep.set("step.classic_ns_per_inst.M1", rs["M1"].classicNs)
	rep.set("step.classic_ns_per_inst.M6", rs["M6"].classicNs)
	rep.set("robust.guard_ns_per_inst", rs["M6"].guardNs)
	rep.set("trace.predecode_ns_per_inst", rs["M6"].predecodeNs)
}

// replayRounds is how many times each replay runs; every figure is the
// median over rounds, which damps the host's run-to-run noise.
const replayRounds = 3

// replayLayers runs the standalone replays for M1, M6 and, when m7 is
// set, the op's own hypothetical M7.
func replayLayers(t *tracer, rep *report, slices []*trace.Slice, m7 *core.GenConfig) {
	gens := []core.GenConfig{}
	for _, name := range []string{"M1", "M6"} {
		g, _ := core.GenByName(name)
		gens = append(gens, g)
	}
	if m7 != nil {
		gens = append(gens, *m7)
	}
	rs := map[string]genReplay{}
	for _, g := range gens {
		var rounds []genReplay
		for i := 0; i < replayRounds; i++ {
			rounds = append(rounds, replayGen(t, g, slices, g.Name != "M7", g.Name == "M6"))
		}
		rs[g.Name] = medianReplay(rounds)
	}
	setReplays(rep, rs)
}

// medianReplay takes the median of every figure over rounds.
func medianReplay(rounds []genReplay) genReplay {
	med := func(f func(genReplay) float64) float64 {
		var xs []float64
		for _, r := range rounds {
			xs = append(xs, f(r))
		}
		return median(xs)
	}
	return genReplay{
		constructMs:    med(func(r genReplay) float64 { return r.constructMs }),
		resetMs:        med(func(r genReplay) float64 { return r.resetMs }),
		captureMs:      med(func(r genReplay) float64 { return r.captureMs }),
		restoreMs:      med(func(r genReplay) float64 { return r.restoreMs }),
		imgMB:          med(func(r genReplay) float64 { return r.imgMB }),
		stepNs:         med(func(r genReplay) float64 { return r.stepNs }),
		classicNs:      med(func(r genReplay) float64 { return r.classicNs }),
		branchNs:       med(func(r genReplay) float64 { return r.branchNs }),
		memNsPerInst:   med(func(r genReplay) float64 { return r.memNsPerInst }),
		memNsPerAccess: med(func(r genReplay) float64 { return r.memNsPerAccess }),
		bareNs:         med(func(r genReplay) float64 { return r.bareNs }),
		guardNs:        med(func(r genReplay) float64 { return r.guardNs }),
		predecodeNs:    med(func(r genReplay) float64 { return r.predecodeNs }),
	}
}

// timeSuite measures workload.Suite for the workload's population.
func timeSuite(t *tracer, rep *report, spec workload.SuiteSpec) {
	var d []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		t.call("workload", "Suite", "replay", -1, -1, func() { workload.Suite(spec) })
		d = append(d, time.Since(t0).Seconds())
	}
	rep.set("workload.suite_s", median(d))
}

// replayIngest measures the real-trace layers over the upload bytes:
// draining trace.NewChampSimReader, simpoint.AnalyzeStream, and a
// tracestore Ingest into a scratch store under dir. The scratch ingest
// also yields the population the output check's references sweep.
func replayIngest(t *tracer, rep *report, upload []byte, dir string) (*tracestore.Population, error) {
	// The reader sniffs the gzip framing itself, as the daemon's does.
	open := func() io.Reader { return bytes.NewReader(upload) }
	var champNs float64
	var insts int
	var err error
	t.call("trace", "ChampSimReader", "replay", -1, -1, func() {
		t0 := time.Now()
		cr, cerr := trace.NewChampSimReader(open(), 0)
		if cerr != nil {
			err = cerr
			return
		}
		for {
			if _, nerr := cr.Next(); nerr != nil {
				if nerr != io.EOF {
					err = nerr
				}
				break
			}
		}
		insts = cr.Insts()
		champNs = float64(time.Since(t0).Nanoseconds())
	})
	if err != nil {
		return nil, fmt.Errorf("champsim replay: %w", err)
	}
	cfg := uploadSimPoint()
	t0 := time.Now()
	t.call("simpoint", "AnalyzeStream", "replay", -1, -1, func() {
		cr, cerr := trace.NewChampSimReader(open(), 0)
		if cerr != nil {
			err = cerr
			return
		}
		_, err = simpoint.AnalyzeStream(cr, cfg)
	})
	if err != nil {
		return nil, fmt.Errorf("simpoint replay: %w", err)
	}
	analyze := time.Since(t0).Seconds()
	pop, ingest, err := ingestScratch(t, upload, dir)
	if err != nil {
		return nil, err
	}
	rep.set("trace.champsim_ns_per_inst", ratio(champNs, float64(insts)))
	rep.set("simpoint.analyze_s", analyze)
	rep.set("tracestore.ingest_s", ingest)
	return pop, nil
}

// uploadSimPoint is the slicing the upload query asks the daemon for.
func uploadSimPoint() simpoint.Config {
	cfg := simpoint.DefaultConfig()
	cfg.IntervalInsts = uploadInterval
	cfg.MaxK = uploadMaxK
	return cfg
}

// ingestScratch ingests the upload into a fresh store under dir, as the
// daemon does, and returns the population and the ingest time.
func ingestScratch(t *tracer, upload []byte, dir string) (*tracestore.Population, float64, error) {
	st, err := tracestore.Open(dir)
	if err != nil {
		return nil, 0, err
	}
	var pop *tracestore.Population
	t0 := time.Now()
	t.call("tracestore", "Store.Ingest", "replay", -1, -1, func() {
		pop, _, err = st.Ingest(func() (io.ReadCloser, error) {
			return io.NopCloser(bytes.NewReader(upload)), nil
		}, tracestore.IngestOptions{Name: uploadName, SimPoint: uploadSimPoint()})
	})
	if err != nil {
		return nil, 0, fmt.Errorf("scratch ingest: %w", err)
	}
	return pop, time.Since(t0).Seconds(), nil
}

const uploadName = "bench-upload"
