package main

// Example pins the whole output: the cross-training attack with and
// without CONTEXT_HASH target encryption. An intentional model change
// updates it alongside `make golden`.
func Example() {
	main()
	// Output:
	// Spectre v2 cross-training on the indirect predictor (§V)
	//
	// --- WITHOUT mitigation ---
	// attacker trained indirect branch 0x400500 toward gadget 0x66660000
	// victim SPECULATES INTO THE GADGET at 0x66660000 — attack succeeds
	// victim retrains: 1/32 mispredicts before steady state
	//
	// --- WITH CONTEXT_HASH encryption ---
	// attacker trained indirect branch 0x400500 toward gadget 0x66660000
	// victim speculates to scrambled address 0xdcc58d8668f1d81c — harmless mispredict, attack defeated
	// victim retrains: 1/32 mispredicts before steady state
	// after OS re-key of SCXTNUM: old mappings decode to garbage — replay attacks break (§V, CEASER-style)
}
