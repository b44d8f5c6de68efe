package experiments

import (
	"context"
	"fmt"
	"strings"

	"exysim/internal/branch"
	"exysim/internal/core"
	"exysim/internal/trace"
	"exysim/internal/workload"
)

// Ablation is one design-choice study: a baseline generation compared
// against the same generation with one mechanism removed or downgraded,
// over a workload subset. Positive SpeedupPct means the mechanism helps.
type Ablation struct {
	Name    string
	Gen     string // baseline generation
	Suites  []string
	Disable func(*core.GenConfig)
	Doc     string
}

// Ablations lists the design choices DESIGN.md calls out.
func Ablations() []Ablation {
	return []Ablation{
		{
			Name: "l2btb", Gen: "M4", Suites: []string{"web"},
			Doc: "§IV-D: M4 doubled L2BTB capacity and improved fill latency/bandwidth; the paper reports +2.8% on BBench in isolation",
			Disable: func(g *core.GenConfig) {
				m3 := branch.M3FrontendConfig()
				g.Branch.L2Sets = m3.L2Sets
				g.Branch.L2FillBubbles = m3.L2FillBubbles
				g.Branch.L2FillTwoLines = false
			},
		},
		{
			Name: "ubtb", Gen: "M1", Suites: []string{"micro"},
			Doc: "§IV-B: zero-bubble μBTB on tight kernels",
			Disable: func(g *core.GenConfig) {
				g.Branch.UBTB.Nodes = 0
				g.Branch.UBTB.UncondNodes = 0
				g.Branch.UBTB.Window = 1 << 30
			},
		},
		{
			Name: "zatzot", Gen: "M5", Suites: []string{"spec", "web", "mobile"},
			Doc:     "§IV-E: zero-bubble always/often-taken replication",
			Disable: func(g *core.GenConfig) { g.Branch.HasZATZOT = false },
		},
		{
			Name: "mrb", Gen: "M5", Suites: []string{"web", "spec"},
			Doc:     "§IV-E: mispredict recovery buffer hides refill delay",
			Disable: func(g *core.GenConfig) { g.Branch.MRBEntries = 0 },
		},
		{
			Name: "intconf", Gen: "M3", Suites: []string{"micro", "spec"},
			Doc:     "§VII-D: integrated confirmation queue vs the plain finite queue",
			Disable: func(g *core.GenConfig) { g.Mem.MSP.Integrated = false },
		},
		{
			Name: "prefetch", Gen: "M3", Suites: []string{"micro", "spec"},
			Doc: "§VII: the whole L1 prefetch stack (multi-stride + SMS)",
			Disable: func(g *core.GenConfig) {
				g.Mem.MSP.MinDegree, g.Mem.MSP.MaxDegree = 0, 0
				g.Mem.HasSMS = false
			},
		},
		{
			Name: "sms", Gen: "M3", Suites: []string{"micro"},
			Doc:     "§VII-C: spatial memory streaming engine",
			Disable: func(g *core.GenConfig) { g.Mem.HasSMS = false },
		},
		{
			Name: "buddy", Gen: "M4", Suites: []string{"spec", "mobile"},
			Doc:     "§VIII-B: L2 buddy sector prefetcher",
			Disable: func(g *core.GenConfig) { g.Mem.HasBuddy = false },
		},
		{
			Name: "standalone", Gen: "M5", Suites: []string{"micro", "game"},
			Doc:     "§VIII-C/D: standalone lower-level-cache prefetcher",
			Disable: func(g *core.GenConfig) { g.Mem.HasStandalone = false },
		},
		{
			Name: "dramlat", Gen: "M5", Suites: []string{"micro", "game"},
			Doc: "§IX: speculative read + early page activate + fast path",
			Disable: func(g *core.GenConfig) {
				g.Mem.Uncore.SpecRead = false
				g.Mem.Uncore.EarlyActivate = false
				g.Mem.Uncore.FastPath = false
			},
		},
		{
			Name: "uoc", Gen: "M5", Suites: []string{"micro"},
			Doc:     "§VI: micro-op cache supply path (performance-neutral by design; its payoff is fetch/decode power)",
			Disable: func(g *core.GenConfig) { g.Pipe.HasUOC = false },
		},
		{
			Name: "elo", Gen: "M5", Suites: []string{"spec", "web"},
			Doc:     "§IV-E: empty-line optimization — a pure power feature; watch the EPKI column",
			Disable: func(g *core.GenConfig) { g.Branch.HasEmptyLineOpt = false },
		},
		{
			Name: "cascade", Gen: "M4", Suites: []string{"micro", "game"},
			Doc:     "§III: 3-cycle load-load cascading",
			Disable: func(g *core.GenConfig) { g.Mem.HasCascade = false },
		},
	}
}

// AblationResult is one study's outcome. EPKI is the front-end energy
// proxy: the power-motivated mechanisms (uoc, elo) show their value
// there rather than in IPC.
type AblationResult struct {
	Ablation
	BaselineIPC  float64
	DisabledIPC  float64
	SpeedupPct   float64
	BaselineEPKI float64
	DisabledEPKI float64
	EnergySavPct float64
}

// RunAblation executes one study over the spec's matching slices: one
// sweep of the baseline and the disabled variant (named "<gen>-<study>").
func RunAblation(a Ablation, spec workload.SuiteSpec) AblationResult {
	gen, ok := core.GenByName(a.Gen)
	if !ok {
		panic("experiments: unknown generation " + a.Gen)
	}
	disabled := gen
	a.Disable(&disabled)
	disabled.Name = gen.Name + "-" + a.Name
	p := sweepSuites(spec, a.Suites, gen, disabled)
	baseIPC, baseEPKI := meanMetrics(p.Results[0])
	disIPC, disEPKI := meanMetrics(p.Results[1])
	res := AblationResult{
		Ablation:    a,
		BaselineIPC: baseIPC, DisabledIPC: disIPC,
		BaselineEPKI: baseEPKI, DisabledEPKI: disEPKI,
	}
	if disIPC > 0 {
		res.SpeedupPct = (baseIPC/disIPC - 1) * 100
	}
	if disEPKI > 0 {
		res.EnergySavPct = (1 - baseEPKI/disEPKI) * 100
	}
	return res
}

// sweepSuites runs gens over the slices of spec's suite that belong to
// suites (every slice when suites is empty) in one Run. A quarantined
// cell panics, as an unknown generation does: a mean over fewer slices
// would be another study.
func sweepSuites(spec workload.SuiteSpec, suites []string, gens ...core.GenConfig) *PopulationRun {
	want := map[string]bool{}
	for _, s := range suites {
		want[s] = true
	}
	slices := []*trace.Slice{} // non-nil: Run sweeps exactly these
	for _, sl := range workload.Suite(spec) {
		if len(want) == 0 || want[sl.Suite] {
			slices = append(slices, sl)
		}
	}
	p, err := Run(context.Background(), spec, WithGenerations(gens), WithPopulation("", slices))
	if err != nil {
		panic("experiments: " + err.Error())
	}
	if len(p.Failures) > 0 {
		panic("experiments: quarantined " + p.Failures[0].String())
	}
	return p
}

// meanMetrics is the mean IPC and fetch EPKI of one generation's row,
// summed in slice order.
func meanMetrics(row []core.Result) (ipc, epki float64) {
	if len(row) == 0 {
		return 0, 0
	}
	for _, r := range row {
		ipc += r.IPC
		epki += r.FetchEPKI
	}
	n := float64(len(row))
	return ipc / n, epki / n
}

// RenderAblations runs and prints the requested studies (all when names
// is empty).
func RenderAblations(names []string, spec workload.SuiteSpec) string {
	sel := map[string]bool{}
	for _, n := range names {
		sel[n] = true
	}
	var b strings.Builder
	b.WriteString("Ablations — baseline vs mechanism-disabled, mean IPC over target suites\n")
	for _, a := range Ablations() {
		if len(sel) > 0 && !sel[a.Name] {
			continue
		}
		r := RunAblation(a, spec)
		fmt.Fprintf(&b, "%-11s %s on %-22v IPC %.3f vs %.3f (%+.1f%%)   EPKI %.0f vs %.0f (%+.1f%% energy)\n",
			r.Name, r.Gen, r.Suites, r.BaselineIPC, r.DisabledIPC, r.SpeedupPct,
			r.BaselineEPKI, r.DisabledEPKI, r.EnergySavPct)
		fmt.Fprintf(&b, "            %s\n", r.Doc)
	}
	return b.String()
}
