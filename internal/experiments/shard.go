// Shard planning and deterministic merge for the distributed sweep
// fabric: a population sweep (every generation × every slice) splits
// into (generation, slice-range) work units, each unit runs anywhere
// (another process, another machine) or comes from a ResultStore, and
// the shard results merge back into a PopulationRun whose SummaryDoc is
// bit-identical to a single-process Run's. Bit-identity holds under any
// permutation or partition of the shards because the merge never
// reduces shard-local aggregates — it reassembles the per-(generation,
// slice) results into the full matrix and lets the canonical
// slice-order reductions (Means, Curves, totals) run exactly as the
// unsharded path does.
package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"

	"exysim/internal/core"
	"exysim/internal/obs"
	"exysim/internal/robust"
	"exysim/internal/trace"
	"exysim/internal/workload"
)

// Shard is one fabric work unit: generation index Gen's slices
// [Lo, Hi) of a population.
type Shard struct {
	Gen int `json:"gen"`
	Lo  int `json:"lo"`
	Hi  int `json:"hi"`
}

// TraceDigest fingerprints everything that determines the shard's
// results: the normalized workload spec (slice content), the generation
// configuration, the slice range, the result schema version and, for a
// shard over an ingested trace population, traceID
// (tracestore.PopulationID, itself a digest of the slices' contents);
// an empty traceID is a synthetic-population shard. Two shards with
// equal digests compute byte-identical ShardDocs, so the fabric matches
// a completed document to the shard it granted by digest.
func (sh Shard) TraceDigest(spec workload.SuiteSpec, gen core.GenConfig, traceID string) string {
	return obs.ConfigDigest(struct {
		Schema int
		Spec   workload.SuiteSpec
		Gen    core.GenConfig
		Lo, Hi int
		Trace  string
	}{ResultsSchemaVersion, spec.Normalize(), gen, sh.Lo, sh.Hi, traceID})
}

// PlanShards splits a genCount × sliceCount population into shards of
// at most maxSlices slices each, generation-major (the order Run
// dispatches, keeping workers hot on one generation). maxSlices <= 0
// means one shard per generation.
func PlanShards(genCount, sliceCount, maxSlices int) []Shard {
	if maxSlices <= 0 || maxSlices > sliceCount {
		maxSlices = sliceCount
	}
	var out []Shard
	for g := 0; g < genCount; g++ {
		for lo := 0; lo < sliceCount; lo += maxSlices {
			hi := lo + maxSlices
			if hi > sliceCount {
				hi = sliceCount
			}
			out = append(out, Shard{Gen: g, Lo: lo, Hi: hi})
		}
	}
	return out
}

// ShardDoc is the versioned wire form of one completed shard: the
// per-slice results of generation Gen's slices [SliceLo, SliceHi), plus
// the shard's robustness tallies. Like SummaryDoc it carries no
// wall-clock fields, so a shard computed twice is byte-identical.
type ShardDoc struct {
	SchemaVersion int    `json:"schema_version"`
	Digest        string `json:"digest"`
	Gen           int    `json:"gen"`
	GenName       string `json:"gen_name"`
	SliceLo       int    `json:"slice_lo"`
	SliceHi       int    `json:"slice_hi"`

	Results  []core.Result         `json:"results"`
	Failed   []bool                `json:"failed,omitempty"`
	Failures []robust.SliceFailure `json:"failures,omitempty"`
	Retries  int                   `json:"retries,omitempty"`

	// Weights records the SimPoint weights of the shard's slices when the
	// population carries them — MergeShards cross-checks these against the
	// caller's slices so a shard computed over one weighting can never
	// merge into a population with another.
	Weights []float64 `json:"weights,omitempty"`

	// Resumed counts the shard's cells restored from a checkpoint rather
	// than simulated. It is provenance of the run that computed the doc
	// — MergeShards sums it into PopulationRun.Resumed — so it never
	// travels: workers run without checkpoints, and a ResultStore keeps
	// cells without it.
	Resumed int `json:"-"`
}

// UnmarshalJSON decodes a shard document stamped with
// ResultsSchemaVersion.
func (d *ShardDoc) UnmarshalJSON(b []byte) error {
	type alias ShardDoc // plain struct: no custom decoder, no recursion
	var a alias
	if err := json.Unmarshal(b, &a); err != nil {
		return err
	}
	if err := checkSchema("shard", a.SchemaVersion); err != nil {
		return err
	}
	*d = ShardDoc(a)
	return nil
}

// clamp bounds the unit's slice range to an n-slice population.
func (sh Shard) clamp(n int) (lo, hi int) {
	return max(sh.Lo, 0), min(sh.Hi, n)
}

// RunShards computes a batch of shards in one Run — one worker pool
// over the union of their cells, inheriting every option the caller
// passes: pool, population table, workers, checkpoint/resume, retries,
// deadlines — and cuts the result into one ShardDoc per unit, in
// order. A cell's result, failure record and retry count do not depend
// on which other units share its batch, so each doc is byte-identical
// to the one a batch of that unit alone produces. Units must not
// overlap.
func RunShards(ctx context.Context, spec workload.SuiteSpec, units []Shard, opts ...Option) ([]*ShardDoc, error) {
	spec = spec.Normalize()
	p, err := Run(ctx, spec, append(append([]Option(nil), opts...), withUnits(units))...)
	if err != nil {
		return nil, err
	}
	docs := make([]*ShardDoc, len(units))
	for i, sh := range units {
		lo, hi := sh.clamp(len(p.Slices))
		doc := &ShardDoc{
			SchemaVersion: ResultsSchemaVersion,
			Digest:        sh.TraceDigest(spec, p.Gens[sh.Gen], p.PopID),
			Gen:           sh.Gen,
			GenName:       p.Gens[sh.Gen].Name,
			SliceLo:       lo,
			SliceHi:       hi,
			Results:       append([]core.Result(nil), p.Results[sh.Gen][lo:hi]...),
		}
		for s := lo; s < hi; s++ {
			doc.Retries += p.retried[sh.Gen][s]
			if p.resumed[sh.Gen][s] {
				doc.Resumed++
			}
			if p.Failed[sh.Gen][s] && doc.Failed == nil {
				doc.Failed = append([]bool(nil), p.Failed[sh.Gen][lo:hi]...)
			}
		}
		for _, f := range p.Failures {
			if f.GenIndex == sh.Gen && f.SliceIndex >= lo && f.SliceIndex < hi {
				doc.Failures = append(doc.Failures, f)
			}
		}
		// Quarantines land in completion order; a doc lists its own in
		// slice order so that it does not depend on scheduling.
		sort.SliceStable(doc.Failures, func(a, b int) bool { return doc.Failures[a].SliceIndex < doc.Failures[b].SliceIndex })
		if p.Weighted() {
			doc.Weights = make([]float64, hi-lo)
			for s := lo; s < hi; s++ {
				doc.Weights[s-lo] = p.Slices[s].Weight
			}
		}
		docs[i] = doc
	}
	return docs, nil
}

// MergeShards reassembles a full cover of shard documents into the
// PopulationRun a single-process Run over the same spec would have
// produced: every (generation, slice) cell must be covered exactly
// once, and gaps, overlaps, and mismatched shard shapes are errors
// rather than silently skewed aggregates. The merge is order-invariant
// — documents are placed by their recorded coordinates and the
// cross-shard lists (Failures) and totals are rebuilt in canonical
// (generation, slice) order — so any permutation or partition of the
// same underlying results yields a byte-identical SummaryDoc.
//
// slices is the materialized population for spec (workload.Suite or a
// PopulationTable's resident copy); the caller supplies it so a coordinator
// merging many sweeps can reuse one generation of the suite.
func MergeShards(spec workload.SuiteSpec, gens []core.GenConfig, slices []*trace.Slice, docs []*ShardDoc) (*PopulationRun, error) {
	spec = spec.Normalize()
	p := &PopulationRun{Spec: spec, Gens: gens, Slices: slices}
	p.Results = make([][]core.Result, len(gens))
	p.Failed = make([][]bool, len(gens))
	covered := make([][]bool, len(gens))
	for g := range gens {
		p.Results[g] = make([]core.Result, len(slices))
		p.Failed[g] = make([]bool, len(slices))
		covered[g] = make([]bool, len(slices))
	}
	// Canonical order regardless of completion order: Failures and
	// Retries must not depend on which worker finished first.
	sorted := append([]*ShardDoc(nil), docs...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i] == nil || sorted[j] == nil {
			return sorted[j] == nil && sorted[i] != nil
		}
		if sorted[i].Gen != sorted[j].Gen {
			return sorted[i].Gen < sorted[j].Gen
		}
		return sorted[i].SliceLo < sorted[j].SliceLo
	})
	for _, d := range sorted {
		if d == nil {
			return nil, fmt.Errorf("experiments: nil shard document in merge")
		}
		if d.Gen < 0 || d.Gen >= len(gens) {
			return nil, fmt.Errorf("experiments: shard generation %d outside [0, %d)", d.Gen, len(gens))
		}
		if d.GenName != gens[d.Gen].Name {
			return nil, fmt.Errorf("experiments: shard generation %d named %q, population has %q", d.Gen, d.GenName, gens[d.Gen].Name)
		}
		if d.SliceLo < 0 || d.SliceHi > len(slices) || d.SliceLo >= d.SliceHi {
			return nil, fmt.Errorf("experiments: shard range [%d, %d) outside %d-slice population", d.SliceLo, d.SliceHi, len(slices))
		}
		if len(d.Results) != d.SliceHi-d.SliceLo {
			return nil, fmt.Errorf("experiments: shard %s/[%d,%d) carries %d results, want %d", d.GenName, d.SliceLo, d.SliceHi, len(d.Results), d.SliceHi-d.SliceLo)
		}
		if d.Failed != nil && len(d.Failed) != d.SliceHi-d.SliceLo {
			return nil, fmt.Errorf("experiments: shard %s/[%d,%d) failure mask length %d, want %d", d.GenName, d.SliceLo, d.SliceHi, len(d.Failed), d.SliceHi-d.SliceLo)
		}
		if d.Weights != nil {
			if len(d.Weights) != d.SliceHi-d.SliceLo {
				return nil, fmt.Errorf("experiments: shard %s/[%d,%d) weight vector length %d, want %d", d.GenName, d.SliceLo, d.SliceHi, len(d.Weights), d.SliceHi-d.SliceLo)
			}
			for i, w := range d.Weights {
				if got := slices[d.SliceLo+i].Weight; got != w {
					return nil, fmt.Errorf("experiments: shard %s/[%d,%d) slice %d weight %v, population has %v — shard computed over a different weighting",
						d.GenName, d.SliceLo, d.SliceHi, d.SliceLo+i, w, got)
				}
			}
		}
		for i, r := range d.Results {
			s := d.SliceLo + i
			if covered[d.Gen][s] {
				return nil, fmt.Errorf("experiments: (gen %d, slice %d) covered by overlapping shards", d.Gen, s)
			}
			covered[d.Gen][s] = true
			p.Results[d.Gen][s] = r
			if d.Failed != nil && d.Failed[i] {
				p.Failed[d.Gen][s] = true
			}
		}
		p.Failures = append(p.Failures, d.Failures...)
		p.Retries += d.Retries
		p.Resumed += d.Resumed
	}
	for g := range gens {
		for s := range slices {
			if !covered[g][s] {
				return nil, fmt.Errorf("experiments: (gen %d %q, slice %d) not covered by any shard", g, gens[g].Name, s)
			}
			if p.ok(g, s) {
				p.TotalInsts += p.Results[g][s].Insts
				p.TotalCycles += p.Results[g][s].Cycles
			}
		}
	}
	return p, nil
}
