// Package cluster simulates several cores of one generation running
// concurrently with a shared path to memory, the deployment shape of §I
// ("Each Exynos M-series CPU cluster..."): every core keeps its private
// L1s, TLBs, predictors and — in this model — cache hierarchy, while all
// cores contend for the same interconnect, memory controller and DRAM
// banks. Shared-cache *capacity* contention is modelled separately by
// mem.Config.CoRunnerLoad; what the cluster adds is real multi-core
// bandwidth and bank contention with each core's own instruction stream.
//
// Scheduling: the core with the smallest pipeline clock steps next, so
// cross-core DRAM timestamps stay approximately ordered and results are
// deterministic.
package cluster

import (
	"exysim/internal/core"
	"exysim/internal/dram"
	"exysim/internal/trace"
	"exysim/internal/uncore"
)

// Cluster is N cores of one generation sharing a memory path.
type Cluster struct {
	gen  core.GenConfig
	sims []*core.Simulator
	unc  *uncore.Uncore
}

// New builds an n-core cluster of the generation.
func New(gen core.GenConfig, n int) *Cluster {
	if n < 1 {
		n = 1
	}
	c := &Cluster{gen: gen}
	c.unc = uncore.New(gen.Mem.Uncore, dram.New(gen.Mem.DRAM))
	for i := 0; i < n; i++ {
		sim := core.NewSimulator(gen)
		sim.Core().Mem().ShareUncore(c.unc)
		c.sims = append(c.sims, sim)
	}
	return c
}

// Uncore exposes the shared memory path (stats).
func (c *Cluster) Uncore() *uncore.Uncore { return c.unc }

// Run replays one slice per core (slices beyond the core count are
// ignored; missing slices idle that core) and returns per-core results.
func (c *Cluster) Run(slices []*trace.Slice) []core.Result {
	n := len(c.sims)
	type lane struct {
		sim  *core.Simulator
		pd   *trace.PreDecoded
		next int
	}
	lanes := make([]*lane, 0, n)
	for i := 0; i < n && i < len(slices); i++ {
		lanes = append(lanes, &lane{sim: c.sims[i], pd: slices[i].PreDecode()})
	}
	for {
		// Step the core whose pipeline clock is furthest behind, so the
		// shared DRAM sees approximately time-ordered requests.
		var pick *lane
		for _, l := range lanes {
			if l.next == len(l.pd.Meta) {
				continue
			}
			if pick == nil || l.sim.Core().Now() < pick.sim.Core().Now() {
				pick = l
			}
		}
		if pick == nil {
			break
		}
		sl, i := pick.pd.Slice, pick.next
		pick.sim.Core().StepDecoded(&sl.Insts[i], pick.pd.Meta[i])
		pick.next++
		if pick.next == sl.Warmup {
			pick.sim.Core().ResetStats()
		}
	}
	out := make([]core.Result, len(lanes))
	for i, l := range lanes {
		out[i] = l.sim.Snapshot(l.pd.Slice)
	}
	return out
}
