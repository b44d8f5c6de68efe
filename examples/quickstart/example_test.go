package main

// Example pins the whole output: the M1 and M6 headline metrics. An
// intentional model change updates it alongside `make golden`.
func Example() {
	main()
	// Output:
	// workload specint/000: 75000 instructions
	//
	// M1 (14nm, 4-wide, ROB 96)
	//   IPC             0.932
	//   branch MPKI      3.12
	//   avg load lat    21.26 cycles
	//
	// M6 (5nm, 8-wide, ROB 256)
	//   IPC             2.733
	//   branch MPKI      2.83
	//   avg load lat     9.42 cycles
	//
	// The paper's cross-generation averages: IPC 1.06 -> 2.71,
	// MPKI 3.62 -> 2.54, load latency 14.9 -> 8.3 cycles (M1 -> M6).
}
