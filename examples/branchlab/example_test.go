package main

// Example pins the whole output: the predictor shoot-out and the
// miniature Fig. 1 sweep. An intentional model change updates it
// alongside `make golden`.
func Example() {
	main()
	// Output:
	// Conditional direction predictors on CBP-like traces
	// (§IV: the SHP lineage; storage shown for scale)
	//
	//   bimodal 8KB                MPKI 10.816   (8 KB)
	//   gshare 8KB/12b             MPKI 10.700   (8 KB)
	//   SHP M1 (8x1K, GHIST 165)   MPKI  8.855   (8 KB)
	//   SHP M5 (16x2K, GHIST 206)  MPKI  8.619   (32 KB)
	//
	// Fig. 1 — avg MPKI of 8-table/1K-weight SHP vs GHIST length (CBP-like traces)
	// GHIST bits   MPKI
	//         1   8.915
	//        16   8.681
	//        32   8.185
	//        64   7.716
	//       128   7.679
	//       165   7.706
	//       224   7.391
	//       300   7.440
	//
	// The M1 design point chose 165 GHIST bits from exactly this
	// diminishing-returns trade-off (Fig. 1); M5 stretched it 25%.
}
