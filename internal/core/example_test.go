package core_test

import (
	"fmt"

	"exysim/internal/core"
	"exysim/internal/workload"
)

// ExampleRunSlice simulates one synthetic workload slice on the first
// and last generations and prints the headline metrics.
func ExampleRunSlice() {
	slice, err := workload.ByName("micro.tight/0", workload.TinySpec)
	if err != nil {
		panic(err)
	}
	for _, name := range []string{"M1", "M6"} {
		gen, _ := core.GenByName(name)
		r := core.RunSlice(gen, slice)
		fmt.Printf("%s: IPC in (0,%d], MPKI >= 0: %v\n",
			name, gen.Pipe.Width, r.IPC > 0 && r.IPC <= float64(gen.Pipe.Width) && r.MPKI >= 0)
	}
	// Output:
	// M1: IPC in (0,4], MPKI >= 0: true
	// M6: IPC in (0,8], MPKI >= 0: true
}

// ExampleGenerations lists the six modeled generations.
func ExampleGenerations() {
	for _, g := range core.Generations() {
		fmt.Printf("%s %s\n", g.Name, g.ProcessNode)
	}
	// Output:
	// M1 14nm
	// M2 10nm LPE
	// M3 10nm LPP
	// M4 8nm LPP
	// M5 7nm
	// M6 5nm
}
