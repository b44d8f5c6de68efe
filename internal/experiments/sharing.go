package experiments

import (
	"fmt"
	"strings"

	"exysim/internal/core"
	"exysim/internal/workload"
)

// SharingRow is one cell of the shared-vs-private L2 study.
type SharingRow struct {
	Gen     string
	Load    float64
	MeanIPC float64
	LoadLat float64
	// L2Polluted / L3Polluted count co-runner fills into each level:
	// the private L2's defining property is L2Polluted == 0.
	L2Polluted uint64
	L3Polluted uint64
}

// SharingStudy quantifies §III's shared-to-private L2 transition: M2's
// 2MB L2 is shared by four cores, M3's 512KB L2 is private with a
// cluster-shared 4MB L3 behind it. The study shows the *trade*: with an
// idle cluster the big shared L2 wins outright; under co-runner load the
// shared level — M2's L2, M3's L3 — erodes, while M3's private L2 keeps
// its contents untouched (its co-runner L2 fill count is structurally
// zero). Which side wins overall depends on working sets, which is why
// the paper calls it an "evolving tradeoff" (§III). Every (generation,
// load) variant, named e.g. "M2@0.3", runs in one sweep.
func SharingStudy(spec workload.SuiteSpec, loads []float64) []SharingRow {
	if loads == nil {
		loads = []float64{0, 0.3, 0.6}
	}
	var gens []core.GenConfig
	var rows []SharingRow
	for _, genName := range []string{"M2", "M3"} {
		for _, load := range loads {
			gen, _ := core.GenByName(genName)
			gen.Mem.CoRunnerLoad = load
			gen.Name = fmt.Sprintf("%s@%g", genName, load)
			gens = append(gens, gen)
			rows = append(rows, SharingRow{Gen: genName, Load: load})
		}
	}
	p := sweepSuites(spec, []string{"spec", "mobile"}, gens...)
	for g := range rows {
		sumIPC, sumLat := 0.0, 0.0
		var l2p, l3p uint64
		for _, r := range p.Results[g] {
			sumIPC += r.IPC
			sumLat += r.AvgLoadLat
			l2p += r.Mem.CoRunnerL2Fills
			l3p += r.Mem.CoRunnerL3Fills
		}
		n := float64(len(p.Slices))
		rows[g].MeanIPC, rows[g].LoadLat = sumIPC/n, sumLat/n
		rows[g].L2Polluted, rows[g].L3Polluted = l2p, l3p
	}
	return rows
}

// RenderSharing prints the study.
func RenderSharing(rows []SharingRow) string {
	var b strings.Builder
	b.WriteString("Shared vs private L2 under cluster co-runner load (§III)\n")
	b.WriteString("gen  sharers  co-runner load  mean IPC  avg load lat\n")
	for _, r := range rows {
		sharers := "4 (shared L2)"
		if r.Gen == "M3" {
			sharers = "1 (private L2)"
		}
		fmt.Fprintf(&b, "%-4s %-14s %8.2f %11.3f %12.2f   L2/L3 pollution %d/%d\n",
			r.Gen, sharers, r.Load, r.MeanIPC, r.LoadLat, r.L2Polluted, r.L3Polluted)
	}
	b.WriteString("(M2's big shared L2 wins an idle cluster; co-runner traffic erodes the\n")
	b.WriteString(" shared level of each design, but only M2's L2 itself gets polluted —\n")
	b.WriteString(" the private-L2 M3 contends in the L3 and DRAM instead, §III)\n")
	return b.String()
}
