package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"exysim/internal/branch"
	"exysim/internal/core"
	"exysim/internal/experiments"
	"exysim/internal/trace"
	"exysim/internal/workload"
)

// The output check. Every op's result document is compared with a
// reference: a digest stored in refs.json (generated for the default
// seed), or else a plain experiments.Run or core.RunSlice computed after
// the timed region. A mismatch, a quarantined pair, a non-2xx response
// or a failed or canceled job each fail that op once; the run goes on.

// refsFile holds the stored reference digests, keyed by refKey ids.
const refsFile = "perfbench/refs.json"

// digestBytes is the short content digest used throughout the check.
func digestBytes(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:12])
}

func digestJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // maps of floats and plain structs always marshal
	}
	return digestBytes(b)
}

// compactJSON strips insignificant whitespace, so responses that passed
// through an indenting encoder compare byte for byte with compact ones.
func compactJSON(raw []byte) ([]byte, error) {
	var b bytes.Buffer
	if err := json.Compact(&b, raw); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// columnDigest fingerprints one generation's column of a summary: every
// mean and, for trace populations, every weighted mean.
func columnDigest(d *experiments.SummaryDoc, gen string) string {
	col := map[string]float64{}
	for m, per := range d.Means {
		col["mean."+m] = per[gen]
	}
	for m, per := range d.WeightedMeans {
		col["weighted."+m] = per[gen]
	}
	return digestJSON(col)
}

// A refKey names one reference computation.
type refKey struct {
	kind  string // "pop" (whole M1–M6 summary), "m7" (M7 column), "slice"
	spec  workload.SuiteSpec
	trace string // population id, "" for the synthetic suite
	m7    branch.PredictorSpec
	gen   string // slice
	slice string // slice
}

func (k refKey) String() string {
	switch k.kind {
	case "m7":
		p, _ := json.Marshal(k.m7)
		return fmt.Sprintf("m7|%+v|%s|%s", k.spec, k.trace, p)
	case "slice":
		return fmt.Sprintf("slice|%+v|%s|%s", k.spec, k.gen, k.slice)
	}
	return fmt.Sprintf("pop|%+v|%s", k.spec, k.trace)
}

// refs resolves reference digests: stored ones first, then computed
// (memoized). Populations for trace references come from pops.
type refs struct {
	stored   map[string]string
	computed map[string]string
	pops     map[string]*populationRef
}

// populationRef is an ingested trace population the references sweep.
type populationRef struct {
	id     string
	slices []*trace.Slice
}

func loadRefs(path string) (*refs, error) {
	r := &refs{stored: map[string]string{}, computed: map[string]string{}, pops: map[string]*populationRef{}}
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return r, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(b, &r.stored); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// id is the stored key of k: a digest of its description, which keeps
// refs.json small.
func (k refKey) id() string { return digestBytes([]byte(k.String())) }

func (r *refs) digest(k refKey) (string, error) {
	s := k.id()
	if d, ok := r.stored[s]; ok {
		return d, nil
	}
	if d, ok := r.computed[s]; ok {
		return d, nil
	}
	d, err := r.compute(k)
	if err != nil {
		return "", err
	}
	r.computed[s] = d
	return d, nil
}

// adopt makes raw's digest k's reference when refs.json stores none,
// and reports whether it did: raw must then be the result of a plain
// run outside the timed region. Where a stored reference exists, raw is
// a result like any other, to be checked against it.
func (r *refs) adopt(k refKey, raw []byte) (bool, error) {
	s := k.id()
	if _, ok := r.stored[s]; ok {
		return false, nil
	}
	compact, err := compactJSON(raw)
	if err != nil {
		return false, err
	}
	r.computed[s] = digestBytes(compact)
	return true, nil
}

// compute runs the plain reference: no pool, no warm cache, no fabric.
func (r *refs) compute(k refKey) (string, error) {
	if k.kind == "slice" {
		g, ok := core.GenByName(k.gen)
		if !ok {
			return "", fmt.Errorf("reference: unknown generation %q", k.gen)
		}
		sl, err := workload.ByName(k.slice, k.spec)
		if err != nil {
			return "", fmt.Errorf("reference: %w", err)
		}
		b, err := json.Marshal(core.RunSlice(g, sl))
		if err != nil {
			return "", err
		}
		return digestBytes(b), nil
	}
	var opts []experiments.Option
	if k.trace != "" {
		p := r.pops[k.trace]
		if p == nil {
			return "", fmt.Errorf("reference: trace population %s not ingested", k.trace)
		}
		opts = append(opts, experiments.WithPopulation(p.id, p.slices))
	}
	if k.kind == "m7" {
		gens, err := experiments.HypotheticalGens("M6", "M7", k.m7)
		if err != nil {
			return "", err
		}
		// The M7 column alone: columns are computed independently, so an
		// M7-only sweep reproduces a full sweep's M7 column exactly.
		opts = append(opts, experiments.WithGenerations(gens[len(gens)-1:]))
	}
	p, err := experiments.Run(context.Background(), k.spec, opts...)
	if err != nil {
		return "", err
	}
	d := p.SummaryDoc()
	if d.Failures > 0 || d.Retries > 0 {
		return "", fmt.Errorf("reference %s: %d failures, %d retries", k, d.Failures, d.Retries)
	}
	if k.kind == "m7" {
		return columnDigest(&d, "M7"), nil
	}
	b, err := json.Marshal(d)
	if err != nil {
		return "", err
	}
	return digestBytes(b), nil
}

// save writes every digest resolved so far (stored and computed).
func (r *refs) save(path string) error {
	all := map[string]string{}
	for k, v := range r.stored {
		all[k] = v
	}
	for k, v := range r.computed {
		all[k] = v
	}
	b, err := json.MarshalIndent(all, "", "  ") // keys sorted
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// checker counts attempted and failed ops. Checks that need a reference
// are queued and run after the timed region by finish.
type checker struct {
	refs      *refs
	attempted int
	failed    int
	pending   []pendingCheck
	errs      []string // the first few failure messages
}

type pendingCheck struct {
	op    int
	check func() error
}

func newChecker(r *refs) *checker { return &checker{refs: r} }

// op records one attempted op: err is its transport or job failure, and
// check, when the op produced a result, verifies that result later.
func (c *checker) op(err error, check func() error) {
	c.attempted++
	if err != nil {
		c.fail(c.attempted-1, err)
		return
	}
	if check != nil {
		c.pending = append(c.pending, pendingCheck{op: c.attempted - 1, check: check})
	}
}

func (c *checker) fail(op int, err error) {
	c.failed++
	if len(c.errs) < 5 {
		c.errs = append(c.errs, fmt.Sprintf("op %d: %v", op, err))
	}
}

// finish runs the queued checks; each failing one fails its op once.
func (c *checker) finish() {
	for _, p := range c.pending {
		if err := p.check(); err != nil {
			c.fail(p.op, err)
		}
	}
	c.pending = nil
}

// checkFullDoc verifies a whole M1–M6 summary against its reference.
func (c *checker) checkFullDoc(raw []byte, k refKey) error {
	doc, err := decodeSummary(raw)
	if err != nil {
		return err
	}
	if err := unquarantined(doc); err != nil {
		return err
	}
	want, err := c.refs.digest(k)
	if err != nil {
		return err
	}
	compact, err := compactJSON(raw)
	if err != nil {
		return err
	}
	if got := digestBytes(compact); got != want {
		return fmt.Errorf("summary digest %s, reference %s (%s)", got, want, k)
	}
	return nil
}

// checkM7Doc verifies an M1–M6 + M7 summary: the M1–M6 columns must equal
// base's (the cache-filling job's) and the column of the hypothetical
// generation, named m7, its reference.
func (c *checker) checkM7Doc(raw []byte, base *experiments.SummaryDoc, m7 string, k refKey) error {
	doc, err := decodeSummary(raw)
	if err != nil {
		return err
	}
	if err := unquarantined(doc); err != nil {
		return err
	}
	gens := doc.Generations
	if doc.Slices != base.Slices || len(gens) != len(base.Generations)+1 || gens[len(gens)-1] != m7 {
		return fmt.Errorf("summary shape: %d slices, gens %v", doc.Slices, gens)
	}
	for _, g := range base.Generations {
		if columnDigest(doc, g) != columnDigest(base, g) {
			return fmt.Errorf("%s column differs from the cache-filling job's", g)
		}
	}
	want, err := c.refs.digest(k)
	if err != nil {
		return err
	}
	if got := columnDigest(doc, m7); got != want {
		return fmt.Errorf("%s column digest %s, reference %s", m7, got, want)
	}
	return nil
}

// checkSliceDoc verifies a slice job's detailed Result.
func (c *checker) checkSliceDoc(raw []byte, k refKey) error {
	var d struct {
		Gen    string          `json:"gen"`
		Slice  string          `json:"slice"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(raw, &d); err != nil {
		return fmt.Errorf("slice document: %w", err)
	}
	if d.Gen != k.gen || d.Slice != k.slice {
		return fmt.Errorf("slice document for %s/%s, asked %s/%s", d.Gen, d.Slice, k.gen, k.slice)
	}
	want, err := c.refs.digest(k)
	if err != nil {
		return err
	}
	compact, err := compactJSON(d.Result)
	if err != nil {
		return err
	}
	if got := digestBytes(compact); got != want {
		return fmt.Errorf("slice result digest %s, reference %s", got, want)
	}
	return nil
}

// sameBytes verifies a cached response against its first computation.
func sameBytes(cached, first []byte) error {
	a, err := compactJSON(cached)
	if err != nil {
		return err
	}
	b, err := compactJSON(first)
	if err != nil {
		return err
	}
	if !bytes.Equal(a, b) {
		return fmt.Errorf("cached result differs from its first computation")
	}
	return nil
}

func decodeSummary(raw []byte) (*experiments.SummaryDoc, error) {
	var d experiments.SummaryDoc
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, fmt.Errorf("summary document: %w", err)
	}
	return &d, nil
}

// unquarantined fails a summary whose sweep quarantined or retried a pair.
func unquarantined(d *experiments.SummaryDoc) error {
	if d.Failures > 0 || d.Retries > 0 {
		return fmt.Errorf("sweep quarantined pairs: %d failures, %d retries", d.Failures, d.Retries)
	}
	return nil
}
