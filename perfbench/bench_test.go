package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"exysim/internal/branch"
	"exysim/internal/experiments"
	"exysim/internal/serve"
)

// summary builds a small M1–M6 (+M7) summary document without running
// a sweep.
func summary(gens ...string) experiments.SummaryDoc {
	d := experiments.SummaryDoc{SchemaVersion: experiments.ResultsSchemaVersion, Generations: gens,
		Slices: 16, InstsPerSlice: instsPerSlice, Means: map[string]map[string]float64{}}
	for mi, m := range experiments.MetricNames() {
		d.Means[m] = map[string]float64{}
		for gi, g := range gens {
			d.Means[m][g] = float64(mi+1) + float64(gi)/8
		}
	}
	return d
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestCheckRejectsPerturbedDigestOnce(t *testing.T) {
	gens := []string{"M1", "M2", "M3", "M4", "M5", "M6"}
	good := summary(gens...)
	raw := mustMarshal(t, good)
	key := refKey{kind: "pop", spec: suiteSpec(defaultSeed, 1)}
	r := &refs{stored: map[string]string{key.id(): digestBytes(raw)}, computed: map[string]string{}}
	c := newChecker(r)

	bad := summary(gens...)
	bad.Means["ipc"]["M4"] += 1e-12
	badRaw := mustMarshal(t, bad)
	c.op(nil, func() error { return c.checkFullDoc(raw, key) })
	c.op(nil, func() error { return c.checkFullDoc(badRaw, key) })
	c.finish()
	c.finish() // a second finish must not count the failure again
	if c.attempted != 2 || c.failed != 1 {
		t.Fatalf("attempted %d failed %d, want 2 and 1", c.attempted, c.failed)
	}

	// An M7 document: its M1–M6 columns must equal the cache-filling
	// job's and its M7 column the stored reference.
	name := m7Name(0)
	gens7 := append(append([]string(nil), gens...), name)
	m7 := summary(gens7...)
	m7key := refKey{kind: "m7", spec: key.spec, m7: tageVariant(defaultSeed, 0)}
	r.stored[m7key.id()] = columnDigest(&m7, name)
	c = newChecker(r)
	perturbedBase := summary(gens7...)
	perturbedBase.Means["load_lat"]["M2"] *= 1.01
	perturbedM7 := summary(gens7...)
	perturbedM7.Means["mpki"][name] += 0.5
	quarantined := summary(gens7...)
	quarantined.Failures = 1
	for _, d := range []experiments.SummaryDoc{m7, perturbedBase, perturbedM7, quarantined} {
		raw := mustMarshal(t, d)
		c.op(nil, func() error { return c.checkM7Doc(raw, &good, name, m7key) })
	}
	c.finish()
	if c.attempted != 4 || c.failed != 3 {
		t.Fatalf("M7 docs: attempted %d failed %d, want 4 and 3 (%v)", c.attempted, c.failed, c.errs)
	}
}

func TestCachedResultMustMatchFirstComputation(t *testing.T) {
	first := []byte(`{"a": 1, "b": [1, 2]}`)
	if err := sameBytes([]byte("{\n  \"a\": 1,\n  \"b\": [\n    1,\n    2\n  ]\n}"), first); err != nil {
		t.Fatalf("indented copy rejected: %v", err)
	}
	if err := sameBytes([]byte(`{"a":1,"b":[2,1]}`), first); err == nil {
		t.Fatal("reordered result accepted")
	}
}

// fakeDaemon answers the first submission 429, queues the second as a
// job that fails, and answers the third from its cache.
func fakeDaemon(t *testing.T) *httptest.Server {
	n := 0
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		n++
		switch n {
		case 1:
			w.Header().Set("Retry-After", "2")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":"job queue is full"}`)
		case 2:
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprint(w, `{"id":"j000002","status":"queued"}`)
		default:
			fmt.Fprint(w, `{"id":"cache-1","status":"done","cached":true,"result":{"ok":true}}`)
		}
	})
	mux.HandleFunc("GET /v1/jobs/{id}/stream", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `{"type":"progress","done":1,"total":2}`+"\n")
		fmt.Fprintf(w, `{"type":"result","job":{"id":%q,"status":"failed","error":"boom"}}`+"\n", r.PathValue("id"))
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func TestErrorRateCountsRejectedAndFailedJobs(t *testing.T) {
	cl := newClient(fakeDaemon(t).URL)
	defer cl.close()
	c := newChecker(&refs{})
	for i := 0; i < 3; i++ {
		out, err := cl.run([]byte(`{}`))
		var check func() error
		if err == nil {
			res := out.result
			check = func() error { return sameBytes(res, []byte(`{"ok":true}`)) }
		}
		c.op(err, check)
	}
	c.finish()
	rep := newReport()
	rep.attempted, rep.failed = c.attempted, c.failed
	if c.attempted != 3 || c.failed != 2 || rep.errorRate() != 2.0/3 {
		t.Fatalf("attempted %d failed %d rate %v (%v)", c.attempted, c.failed, rep.errorRate(), c.errs)
	}
	if !strings.Contains(c.errs[0], "429") || !strings.Contains(c.errs[1], "failed: boom") {
		t.Fatalf("failure messages %q", c.errs)
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = float64(40 - i) // unsorted input
	}
	v, pct, ok := tail(xs, 10)
	if !ok || v != 30 || pct != 75 {
		t.Fatalf("tail of 1..40 = %v p%v %v, want 30 p75", v, pct, ok)
	}
	if v, pct, ok := tail(xs[:11], 10); !ok || v != 30 || pct != 100.0/11 {
		t.Fatalf("tail of 11 samples = %v p%v %v, want the smallest", v, pct, ok)
	}
	if _, _, ok := tail(xs[:10], 10); ok {
		t.Fatal("a run of 10 ops has no sample with ten beyond it")
	}
	if median([]float64{3, 1, 2, 10}) != 2.5 {
		t.Fatal("median of an even count")
	}
}

// sweep_cold's ops go on until --seconds since the run's start is
// spent, and to at least minOps however late they start.
func TestUntilSpentRunsForTheSeconds(t *testing.T) {
	e := &env{start: time.Now(), seconds: 100 * time.Millisecond, rep: newReport()}
	n := e.untilSpent(1, func(int) { time.Sleep(10 * time.Millisecond) })
	if el := time.Since(e.start); el < e.seconds || el > e.seconds+50*time.Millisecond || n < 5 || n > 10 {
		t.Fatalf("%d ops of 10 ms in %v for 100 ms", n, el)
	}
	if n := e.untilSpent(3, func(int) {}); n != 3 {
		t.Fatalf("minOps 3 after the time was spent ran %d ops", n)
	}
}

// A served run gives every epoch a fresh deployment and the same ops,
// runs one epoch per epochSeconds of --seconds and at least setupReps,
// and hands back only the last deployment, still open.
func TestEpochsRunTheSameOpsOnFreshDeployments(t *testing.T) {
	for _, tc := range []struct {
		seconds time.Duration
		epochs  int
	}{{time.Second, setupReps}, {5*epochSeconds*time.Second + time.Second, 5}} {
		e := &env{start: time.Now(), seconds: tc.seconds, rep: newReport()}
		var urls []string
		var ops [][2]int
		dep, cl, _, _, err := e.epochs(served{
			n: 3,
			start: func() (*deployment, *client, error) {
				dep, err := startDaemon(serve.Config{})
				if err != nil {
					return nil, nil, err
				}
				urls = append(urls, dep.url)
				return dep, newClient(dep.url), nil
			},
			ready: func() error { return nil },
			op:    func(_ *deployment, _ *client, i, g int) { ops = append(ops, [2]int{i, g}) },
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(urls) != tc.epochs || len(ops) != 3*tc.epochs {
			t.Fatalf("--seconds %v: %d epochs, %d ops; want %d epochs of 3", tc.seconds, len(urls), len(ops), tc.epochs)
		}
		for g, o := range ops {
			if o != [2]int{g % 3, g} {
				t.Fatalf("op %d ran as %v", g, o)
			}
		}
		if _, ok := e.rep.values["setup_s"]; !ok {
			t.Fatal("setup_s not reported")
		}
		if dep.url != urls[len(urls)-1] {
			t.Fatal("the returned deployment is not the last one")
		}
		if _, err := cl.jobsRetained(); err != nil {
			t.Fatalf("last deployment closed: %v", err)
		}
		for _, u := range urls[:len(urls)-1] {
			if resp, err := http.Get(u + "/v1/jobs"); err == nil {
				resp.Body.Close()
				t.Fatalf("earlier deployment %s still serving", u)
			}
		}
		cl.close()
		if err := dep.close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPrinterEmitsEveryNamedMetricWithUnit(t *testing.T) {
	for _, specs := range [][]metricSpec{endToEnd, perLayer} {
		r := newReport()
		r.attempted = 5
		for i, s := range specs {
			r.set(s.Name, float64(i)+0.5)
		}
		r.set("extra_not_in_contract", 1)
		var b strings.Builder
		if err := r.write(&b, "w", specs); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(b.String()), "\n")
		var res jsonResult
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Attempted != 5 || len(res.Metrics) != len(specs) {
			t.Fatalf("result %+v", res)
		}
		for i, s := range specs {
			m, ok := res.Metrics[s.Name]
			if !ok || m.Unit != s.Unit || m.Value != float64(i)+0.5 {
				t.Fatalf("metric %s: %+v", s.Name, m)
			}
			if !strings.Contains(b.String(), s.Name+" ") {
				t.Fatalf("human-readable line for %s missing", s.Name)
			}
		}
		delete(r.values, specs[0].Name)
		if err := r.write(&b, "w", specs); err == nil {
			t.Fatal("a missing metric was printed")
		}
	}
}

// The benchmark's metric lists are the contract BENCHMARK.json states.
func TestBenchmarkJSONMatchesMetricLists(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricSpec `json:"end_to_end"`
		PerLayer  []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &cfg); err != nil {
		t.Fatal(err)
	}
	same := func(a, b []metricSpec) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if !same(cfg.EndToEnd, endToEnd) || !same(cfg.PerLayer, perLayer) {
		t.Fatalf("BENCHMARK.json metrics differ from the benchmark's lists")
	}
	if len(cfg.Workloads) != 3 {
		t.Fatalf("workloads %v", cfg.Workloads)
	}
}

// The serve_mixed script's median falls among slice jobs and its tail
// among population jobs, with room on both sides; its slice jobs cover
// every (generation, family) pair, and each epoch resubmits only its
// own ops and sweeps its own population.
func TestMixedScriptProportions(t *testing.T) {
	const epochs = 3
	ops := mixedScript(defaultSeed, "trace-id", epochs*mixedOpsPerEpoch, mixedOpsPerEpoch)
	count := map[string]int{}
	pairs := map[string]bool{}
	for i, op := range ops {
		count[op.kind]++
		ep := i / mixedOpsPerEpoch
		switch op.kind {
		case kindCached:
			if ops[op.of].kind == kindCached || op.of >= i || op.of/mixedOpsPerEpoch != ep {
				t.Fatalf("op %d resubmits op %d", i, op.of)
			}
		case kindSlice:
			pairs[op.req.Gen+" "+op.req.Slice[:strings.LastIndexByte(op.req.Slice, '/')]] = true
		case kindPop:
			if op.spec != mixedPopulation(defaultSeed, ep) || op.req.Spec.Seed != op.spec.Seed {
				t.Fatalf("op %d sweeps another epoch's population", i)
			}
		case kindTrace:
			if op.req.Trace != "trace-id" {
				t.Fatalf("trace op %d has no trace", i)
			}
		}
	}
	// Sorted by cost: cached < slice < trace < pop.
	cached, slice, pop := count[kindCached], count[kindSlice], count[kindPop]
	if mid := len(ops) / 2; mid < cached+10 || mid > cached+slice-10 {
		t.Fatalf("median falls outside the slice jobs: %v", count)
	}
	if pop < 20 {
		t.Fatalf("too few population jobs for a tail inside them: %v", count)
	}
	if len(pairs) != 6*9 {
		t.Fatalf("slice jobs cover %d (generation, family) pairs, want 54", len(pairs))
	}
	a, b := mixedScript(defaultSeed, "trace-id", 50, 25), mixedScript(defaultSeed, "trace-id", 50, 25)
	for i := range a {
		if string(a[i].req.body()) != string(b[i].req.body()) {
			t.Fatal("script is not a function of the seed")
		}
	}
}

func TestVariantsAreDistinctGeometries(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < variantGeometries; i++ {
		for _, v := range []branch.PredictorSpec{tageVariant(7, i), shpVariant(7, i)} {
			k := refKey{kind: "m7", m7: v}.String()
			if seen[k] {
				t.Fatalf("variant %d repeats a geometry", i)
			}
			seen[k] = true
			if err := v.Validate(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if tageVariant(7, variantGeometries+3).String() != tageVariant(7, 3).String() || m7Name(3) == m7Name(variantGeometries+3) {
		t.Fatal("op i must run geometry i mod variantGeometries under its own name")
	}
}
