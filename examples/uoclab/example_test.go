package main

// Example pins the whole output: UOC performance and front-end energy
// on M4 and M5. An intentional model change updates it alongside
// `make golden`.
func Example() {
	main()
	// Output:
	// Micro-op cache (§VI): power feature, not a performance feature
	//
	// UOC-friendly: a hot kernel that fits the 384-μop array
	// M4  on micro.tight/0  IPC  4.61   front-end EPKI  45601
	// M5  on micro.tight/0  IPC  5.82   front-end EPKI  10821   UOC: 96.9% of μops, 2 builds, 2 fetch-entries, 15227 decode-cycles gated
	//
	// UOC-hostile: web-scale code; FilterMode must refuse to build
	// M4  on web/0          IPC  1.07   front-end EPKI  45975
	// M5  on web/0          IPC  1.29   front-end EPKI  41598   UOC: 14.1% of μops, 11 builds, 11 fetch-entries, 2381 decode-cycles gated
	//
	// Read the EPKI column: the UOC pays for itself on repeatable kernels
	// by gating the instruction cache and decoders (§VI), while FilterMode
	// keeps it out of the way on unpredictable, oversized code segments.
}
