// Branchlab: a conditional-branch predictor shoot-out on the CBP-like
// synthetic traces — bimodal and gshare baselines against the paper's
// Scaled Hashed Perceptron in its M1 and M5 geometries — followed by a
// miniature Fig. 1 sweep of SHP accuracy against GHIST length.
package main

import (
	"fmt"

	"exysim/internal/branch"
	"exysim/internal/experiments"
	"exysim/internal/isa"
	"exysim/internal/workload"
)

func mpkiOf(p branch.DirectionPredictor, slices int) float64 {
	var mis, insts uint64
	for _, sl := range workload.CBPSuite(slices, 200_000, 220, 0xE59) {
		for i := range sl.Insts {
			in := &sl.Insts[i]
			measured := i >= sl.Warmup
			if in.Branch == isa.BranchCond {
				pred := p.Predict(in.PC)
				if measured && pred.Taken != in.Taken {
					mis++
				}
				p.Train(in.PC, in.Taken)
			}
			if in.Branch.IsBranch() {
				p.OnBranch(in.PC, in.Branch == isa.BranchCond, in.Taken)
			}
			if measured {
				insts++
			}
		}
	}
	return float64(mis) / float64(insts) * 1000
}

func main() {
	fmt.Println("Conditional direction predictors on CBP-like traces")
	fmt.Println("(§IV: the SHP lineage; storage shown for scale)")
	fmt.Println()
	preds := []struct {
		name string
		mk   func() branch.DirectionPredictor
	}{
		{"bimodal 8KB", func() branch.DirectionPredictor { return branch.NewBimodal(32 << 10) }},
		{"gshare 8KB/12b", func() branch.DirectionPredictor { return branch.NewGShare(32<<10, 12) }},
		{"SHP M1 (8x1K, GHIST 165)", func() branch.DirectionPredictor { return branch.NewSHP(branch.M1SHPConfig()) }},
		{"SHP M5 (16x2K, GHIST 206)", func() branch.DirectionPredictor { return branch.NewSHP(branch.M5SHPConfig()) }},
	}
	for _, p := range preds {
		inst := p.mk()
		fmt.Printf("  %-26s MPKI %6.3f   (%d KB)\n", p.name, mpkiOf(inst, 4), inst.StorageBits()/8192)
	}

	fmt.Println()
	fmt.Println(experiments.RenderFig1(experiments.Fig1(4, 200_000, []int{1, 16, 32, 64, 128, 165, 224, 300}, 0xE59)))
	fmt.Println("The M1 design point chose 165 GHIST bits from exactly this")
	fmt.Println("diminishing-returns trade-off (Fig. 1); M5 stretched it 25%.")
}
