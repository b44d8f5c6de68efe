package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"exysim/internal/branch"
)

// FuzzJobRequest runs arbitrary bodies through the submit path up to
// the point a job would be looked up and queued: the decode POST
// /v1/jobs applies (1 MiB cap, unknown fields refused), resolve,
// hypoGens and jobDigest. Nothing may panic, and every request accepted
// must be within the request bounds: at most maxJobSlices slices and
// maxJobEntries trace entries, recomputed here from the spec's fields
// the way the generator sizes them, and an M7 predictor within the
// branch geometry caps. The seeds are the bodies the serve tests post,
// plus oversized ones, so `go test` runs them.
func FuzzJobRequest(f *testing.F) {
	slice := specRequest(serveSpec)
	slice.Kind, slice.Gen, slice.Slice = "slice", "M4", "web/0"
	traced := specRequest(serveSpec)
	traced.Trace = "feedfacefeedface"
	for _, req := range []JobRequest{specRequest(serveSpec), m7Request(), slice, traced} {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	for _, body := range []string{
		`{"spec":{"preset":"standard"}}`,
		`{"spec":{"insts_per_slice":1000000000}}`,
		`{"kind":"slice","gen":"M1","slice":"web/0","spec":{"slices_per_family":1000000000}}`,
		`{"spec":{"slices_per_family":8000000,"insts_per_slice":1}}`,
		`{"spec":{"slices_per_family":496,"insts_per_slice":13120}}`,
		`{"m7":{"predictor":{"kind":"tage-sc-l","tage":{"banks":1000000,"bank_rows":1024,"tag_bits":11,"ctr_bits":3,"useful_bits":2,"hist_min":4,"hist_max":640,"bimodal_rows":8192}}}}`,
		`{"m7":{"predictor":{"kind":"tage-sc-l","tage":{"banks":12,"bank_rows":1024,"tag_bits":11,"ctr_bits":3,"useful_bits":2,"hist_min":4,"hist_max":640,"bimodal_rows":8192,"loop_sets":4611686018427387904,"loop_ways":4}}}}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeJobRequest(http.MaxBytesReader(httptest.NewRecorder(), io.NopCloser(bytes.NewReader(body)), maxJobBody))
		if err != nil {
			return
		}
		spec, err := req.resolve()
		if err != nil {
			return
		}
		gens, err := req.hypoGens()
		if err != nil {
			return
		}
		if jobDigest(req, spec) == "" {
			t.Fatal("empty job digest")
		}
		// A slice job generates one slice and a population Suite(spec),
		// as many as Slices counts (pinned against Suite in package
		// workload); each trace is presized to the slice's instructions,
		// warmup included, plus 64 entries of generator slack.
		slices := 1.0
		if req.Kind != "slice" {
			slices = spec.Slices()
		}
		perSlice := float64(spec.InstsPerSlice) + math.Trunc(float64(spec.InstsPerSlice)*spec.WarmupFrac) + 64
		if slices > maxJobSlices || slices*perSlice > maxJobEntries {
			t.Fatalf("accepted a %s request of %v slices × %v entries", req.Kind, slices, perSlice)
		}
		if len(gens) > 0 {
			if p := gens[len(gens)-1].Branch.Predictor; !withinGeometryCaps(p) {
				t.Fatalf("accepted a predictor past the geometry caps: %v", p)
			}
		}
	})
}

// withinGeometryCaps reports whether every table, bank and history the
// spec's engines allocate fits the branch package's caps.
func withinGeometryCaps(p branch.PredictorSpec) bool {
	ok := true
	le := func(v, limit int) { ok = ok && v <= limit }
	if s := p.SHP; s != nil && p.EngineKind() == branch.KindSHP {
		le(s.Tables, branch.MaxTables)
		le(s.Rows, branch.MaxRows)
		le(s.BiasEntries, branch.MaxBaseRows)
		le(s.GHISTLen, branch.MaxHistory)
		le(s.PHISTLen, branch.MaxHistory)
	}
	if g := p.TAGE; g != nil && p.EngineKind() == branch.KindTAGESCL {
		le(g.Banks, branch.MaxTables)
		le(g.BankRows, branch.MaxRows)
		le(g.BimodalRows, branch.MaxBaseRows)
		le(g.HistMax, branch.MaxHistory)
		le(g.SCTables, branch.MaxTables)
		if g.SCTables > 0 {
			le(g.SCRows, branch.MaxRows)
		}
		if g.LoopSets > 0 {
			ways := g.LoopWays
			if ways <= 0 {
				ways = 4 // the constructor's default
			}
			le(g.LoopSets, branch.MaxRows)
			le(ways, branch.MaxRows/g.LoopSets)
		}
	}
	if i := p.Indirect; i != nil {
		le(i.Banks, branch.MaxTables)
		le(i.BankRows, branch.MaxRows)
		le(i.BaseRows, branch.MaxRows)
		le(i.HistMax, branch.MaxHistory)
	}
	return ok
}
