package experiments

import (
	"fmt"
	"strings"

	"exysim/internal/branch"
	"exysim/internal/workload"
)

// SecurityRow is one configuration of the §V mitigation-cost study.
type SecurityRow struct {
	Name        string
	MPKI        float64
	IndirectMis uint64
	ReturnMis   uint64
}

// SecurityCost quantifies the §V design's performance side: target
// encryption itself is free within a context (the same CONTEXT_HASH
// perfectly un-scrambles every prediction), while the optional periodic
// re-keying the paper suggests ("the operating system can intentionally
// periodically alter the CONTEXT_HASH ... at the expense of indirect
// mispredicts and re-training") costs exactly those retrains.
func SecurityCost(spec workload.SuiteSpec, rekeyEvery int) []SecurityRow {
	run := func(name string, useCipher bool, rekey int) SecurityRow {
		f := branch.NewFrontend(branch.M5FrontendConfig())
		ctx := &branch.Context{
			ASID: 7, Level: branch.ELUser,
			SWEntropy: [4]uint64{0x1234, 0, 0, 0},
			HWEntropy: [4]uint64{0xABCD, 1, 2, 3},
		}
		ctx.ComputeHash()
		if useCipher {
			f.SetCipher(branch.XorCipher{}, ctx)
		}
		steps := 0
		var agg branch.Stats
		for _, sl := range workload.Suite(spec) {
			if sl.Suite != "web" { // indirect-heavy suite shows the cost
				continue
			}
			for i := range sl.Insts {
				f.Step(&sl.Insts[i])
				steps++
				if i+1 == sl.Warmup {
					f.ResetStats()
				}
				if useCipher && rekey > 0 && steps%rekey == 0 {
					// The OS rolls SCXTNUM (software entropy): the
					// derived CONTEXT_HASH changes and previously
					// learned encrypted targets stop decoding.
					ctx.SWEntropy[0]++
					f.SwitchContext(ctx)
				}
			}
			// Accumulate this slice's detailed region before the next
			// slice's warmup reset wipes it.
			st := f.Stats()
			agg.Insts += st.Insts
			agg.Mispredicts += st.Mispredicts
			agg.MispredIndirect += st.MispredIndirect
			agg.MispredReturn += st.MispredReturn
			f.ResetStats()
		}
		return SecurityRow{Name: name, MPKI: agg.MPKI(), IndirectMis: agg.MispredIndirect, ReturnMis: agg.MispredReturn}
	}
	return []SecurityRow{
		run("no cipher", false, 0),
		run("cipher, stable context", true, 0),
		run(fmt.Sprintf("cipher, re-key every %d insts", rekeyEvery), true, rekeyEvery),
	}
}

// RenderSecurity prints the study.
func RenderSecurity(rows []SecurityRow) string {
	var b strings.Builder
	b.WriteString("§V mitigation cost on web slices (M5 front end)\n")
	b.WriteString("configuration                        MPKI   indirect-mis  return-mis\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-34s %6.2f %13d %11d\n", r.Name, r.MPKI, r.IndirectMis, r.ReturnMis)
	}
	b.WriteString("(within one context the stream cipher is performance-neutral; periodic\n")
	b.WriteString(" re-keying trades indirect/RAS retrains for cross-training immunity, §V)\n")
	return b.String()
}
