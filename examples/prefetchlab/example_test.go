package main

// Example pins the whole output: which prefetch engine covers which
// workload shape on each generation. An intentional model change
// updates it alongside `make golden`.
func Example() {
	main()
	// Output:
	// micro.stream/0 — multi-stride streams: the §VII multi-stride engine's home turf
	//   gen       IPC    loadLat      L1-hit%       DRAM
	//   M1      0.241      53.1c        38.4%        422
	//   M3      0.340      66.7c        38.8%        657
	//   M4      0.452      74.5c        38.1%       1303
	//   M5      0.447      75.4c        38.2%       1025
	//        M5 engines: stride locks 154 / issued 26466 / confirmations 21586; standalone issued 161905 (promotions 1)
	//   M6      0.447      75.2c        38.3%       1016
	//
	// micro.sms/0 — irregular-but-spatial regions: invisible to stride detection, covered by SMS (§VII-C)
	//   gen       IPC    loadLat      L1-hit%       DRAM
	//   M1      0.492      29.1c         0.9%          0
	//   M3      0.476      52.8c        21.5%         88
	//   M4      1.301      14.8c        41.6%          0
	//   M5      1.234      16.1c        41.6%          0
	//        M5 engines: stride locks 0 / issued 0 / confirmations 0; standalone issued 0 (promotions 0)
	//   M6      1.364      14.7c        42.2%          0
	//
	// micro.chase/0 — dependent pointer chase: no pattern to prefetch; only cache capacity and the §IX DRAM-latency features help
	//   gen       IPC    loadLat      L1-hit%       DRAM
	//   M1      0.016     150.2c         0.0%      25000
	//   M3      0.018     129.8c         0.0%      18553
	//   M4      0.031      76.3c         0.0%      14062
	//   M5      0.062      38.6c         0.0%       8674
	//        M5 engines: stride locks 0 / issued 0 / confirmations 0; standalone issued 18864 (promotions 1)
	//   M6      0.062      38.3c         0.1%       8677
	//
	// Shapes to notice: stream IPC climbs as the dynamic-degree stride
	// engine gets the MABs to run ahead (M4+); the SMS shape jumps once
	// the spatial engine has a large-enough L2 behind it (M4, after M3's
	// L2 downsizing dip); and the chase shape only moves when cache
	// capacity and the §IX DRAM-latency features do.
}
