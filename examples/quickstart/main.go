// Quickstart: build two generations of the simulated Exynos core (the
// first and the last), replay the same synthetic workload slice through
// both, and compare the paper's three headline metrics — IPC, branch
// MPKI and average load latency.
package main

import (
	"fmt"
	"log"

	"exysim/internal/core"
	"exysim/internal/workload"
)

func main() {
	// A SPECint-like workload slice: 60k instructions after a 20k
	// warmup, deterministic from the seed.
	slice, err := workload.ByName("specint/0", workload.QuickSpec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workload %s: %d instructions\n\n", slice.Name, slice.Len())

	for _, name := range []string{"M1", "M6"} {
		gen, ok := core.GenByName(name)
		if !ok {
			log.Fatalf("unknown generation %s", name)
		}
		r := core.RunSlice(gen, slice)
		fmt.Printf("%s (%s, %d-wide, ROB %d)\n", gen.Name, gen.ProcessNode, gen.Pipe.Width, gen.Pipe.ROB)
		fmt.Printf("  IPC            %6.3f\n", r.IPC)
		fmt.Printf("  branch MPKI    %6.2f\n", r.MPKI)
		fmt.Printf("  avg load lat   %6.2f cycles\n\n", r.AvgLoadLat)
	}

	fmt.Println("The paper's cross-generation averages: IPC 1.06 -> 2.71,")
	fmt.Println("MPKI 3.62 -> 2.54, load latency 14.9 -> 8.3 cycles (M1 -> M6).")
}
