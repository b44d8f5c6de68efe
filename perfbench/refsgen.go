package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// storedEpochs is how many serve_mixed epochs the stored references
// cover: the five of a 60 s run. A longer run computes the rest.
const storedEpochs = 5

// generateRefs computes the default seed's reference digests — what
// the first ops of every workload must return — and writes refs.json.
// Nothing else is kept: a model change that moves a number makes the
// default-seed runs fail until the file is regenerated on purpose.
func generateRefs(r *refs) error {
	r.stored = map[string]string{}
	seed := uint64(defaultSeed)
	spec := suiteSpec(seed, 1)
	t0 := time.Now()
	// sweep_cold's populations and serve_mixed's, one per epoch; the
	// first is everyone's.
	var keys []refKey
	for j := 0; j < max(setupReps, storedEpochs); j++ {
		keys = append(keys, refKey{kind: "pop", spec: suiteSpec(seed, uint64(1+j))})
	}
	for i := 0; i < variantGeometries; i++ {
		keys = append(keys, refKey{kind: "m7", spec: spec, m7: tageVariant(seed, i)})
	}
	upload, err := champSimUpload(seed)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(".bench_build", "refs-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	pop, _, err := ingestScratch(nil, upload, filepath.Join(dir, "store"))
	if err != nil {
		return err
	}
	id := pop.Meta.ID
	r.pops[id] = &populationRef{id: id, slices: pop.Slices}
	keys = append(keys, refKey{kind: "pop", spec: spec, trace: id})
	for _, op := range mixedScript(seed, id, storedEpochs*mixedOpsPerEpoch, mixedOpsPerEpoch) {
		switch op.kind {
		case kindPop:
			keys = append(keys, refKey{kind: "m7", spec: op.spec, m7: op.variant})
		case kindTrace:
			keys = append(keys, refKey{kind: "m7", spec: op.spec, trace: id, m7: op.variant})
		case kindSlice:
			keys = append(keys, refKey{kind: "slice", spec: op.spec, gen: op.req.Gen, slice: op.req.Slice})
		}
	}
	for i, k := range keys {
		if _, err := r.digest(k); err != nil {
			return err
		}
		if (i+1)%100 == 0 {
			fmt.Fprintf(os.Stderr, "perfbench: %d/%d references (%.0fs)\n", i+1, len(keys), time.Since(t0).Seconds())
		}
	}
	return r.save(refsFile)
}
