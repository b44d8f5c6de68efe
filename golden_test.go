// Behaviour lock: TestGoldenTiny pins what the model computes on the
// tiny population to a committed file, so a refactor of the step path,
// the sweep harness or any subsystem cannot move a single Result bit
// without the diff showing up here. Cross-path tests elsewhere prove
// the execution paths agree with each other; this one proves they still
// agree with what the model computed when the file was written.
//
// Regenerate after an intentional model change with `make golden`, and
// name the numbers that moved in CHANGES.md.
package exysim

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"exysim/internal/branch"
	"exysim/internal/cluster"
	"exysim/internal/core"
	"exysim/internal/experiments"
	"exysim/internal/robust"
	"exysim/internal/trace"
	"exysim/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden/tiny.json from the current model")

const goldenTinyPath = "testdata/golden/tiny.json"

// goldenTimelineInterval splits each tiny slice (20K measured + 5K
// warmup instructions) into five timeline samples.
const goldenTimelineInterval = 5_000

// goldenTiny is the committed document. Results are pinned as SHA-256
// digests of each core.Result's JSON (the full Result, every counter and
// the power breakdown), keyed generation → slice; the summary, cluster
// and timeline sections keep readable values.
type goldenTiny struct {
	Spec     workload.SuiteSpec           `json:"spec"`
	Summary  experiments.SummaryDoc       `json:"summary"`
	Results  map[string]map[string]string `json:"results"`
	Cluster  goldenCluster                `json:"cluster"`
	Timeline map[string]goldenTimeline    `json:"timeline"`
}

type goldenCluster struct {
	Gen     string    `json:"gen"`
	Slices  []string  `json:"slices"`
	Results []string  `json:"results"`
	IPC     []float64 `json:"ipc"`
}

type goldenTimeline struct {
	Slice     string                `json:"slice"`
	Intervals []core.IntervalResult `json:"intervals"`
}

func resultDigest(t *testing.T, r core.Result) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("marshal %s/%s: %v", r.Gen, r.Slice, err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestGoldenTiny recomputes the behaviour lock and diffs it against the
// committed file: the tiny-spec SummaryDoc for M1–M6 plus a TAGE-SC-L
// M7; every (generation, slice) Result reached through experiments.Run
// and core.RunSlice (and, on M6, robust.RunGuarded), which must all hash
// to the pinned digest; a two-core M6 cluster; and one timeline per
// generation.
func TestGoldenTiny(t *testing.T) {
	spec := workload.TinySpec
	gens, err := experiments.HypotheticalGens("M6", "M7", branch.PredictorSpec{Kind: branch.KindTAGESCL})
	if err != nil {
		t.Fatal(err)
	}
	p, err := experiments.Run(context.Background(), spec, experiments.WithGenerations(gens))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Failures) != 0 {
		t.Fatalf("tiny sweep quarantined %d slices: %v", len(p.Failures), p.Failures[0].String())
	}
	got := goldenTiny{
		Spec:     spec,
		Summary:  p.SummaryDoc(),
		Results:  map[string]map[string]string{},
		Timeline: map[string]goldenTimeline{},
	}
	// The replay paths run one generation per parallel subtest over the
	// sweep's own slices: replays only read a slice, so under -race this
	// also checks that concurrent replays share no mutable slice state.
	slices := p.Slices
	columns := make([]map[string]string, len(gens))
	timelines := make([]goldenTimeline, len(gens))
	t.Run("paths", func(t *testing.T) {
		for g, gen := range gens {
			t.Run(gen.Name, func(t *testing.T) {
				t.Parallel()
				col := map[string]string{}
				for s, sl := range slices {
					want := resultDigest(t, p.Results[g][s])
					if d := resultDigest(t, core.RunSlice(gen, sl)); d != want {
						t.Errorf("%s: core.RunSlice digest %s differs from experiments.Run's %s", sl.Name, d, want)
					}
					// The guarded loop behind served slice jobs, on the
					// newest shipped generation.
					if gen.Name == "M6" {
						r, fail := robust.RunGuarded(core.NewSimulator(gen), sl, robust.Options{CheckInvariants: true})
						if fail != nil {
							t.Fatalf("%s: robust.RunGuarded: %v", sl.Name, fail)
						}
						if d := resultDigest(t, r); d != want {
							t.Errorf("%s: robust.RunGuarded digest %s differs from experiments.Run's %s", sl.Name, d, want)
						}
					}
					col[sl.Name] = want
				}
				columns[g] = col
				sl := slices[g%len(slices)]
				timelines[g] = goldenTimeline{
					Slice:     sl.Name,
					Intervals: core.NewSimulator(gen).RunTimeline(sl, goldenTimelineInterval),
				}
			})
		}
	})
	for g, gen := range gens {
		got.Results[gen.Name] = columns[g]
		got.Timeline[gen.Name] = timelines[g]
	}

	m6, _ := core.GenByName("M6")
	pair := []int{0, len(slices) - 1}
	got.Cluster.Gen = m6.Name
	for i, r := range cluster.New(m6, len(pair)).Run([]*trace.Slice{slices[pair[0]], slices[pair[1]]}) {
		got.Cluster.Slices = append(got.Cluster.Slices, slices[pair[i]].Name)
		got.Cluster.Results = append(got.Cluster.Results, resultDigest(t, r))
		got.Cluster.IPC = append(got.Cluster.IPC, r.IPC)
	}

	raw, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	raw = append(raw, '\n')
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenTinyPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenTinyPath, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", goldenTinyPath)
		return
	}
	wantRaw, err := os.ReadFile(goldenTinyPath)
	if err != nil {
		t.Fatalf("%v (run `make golden` to create it)", err)
	}
	if string(raw) == string(wantRaw) {
		return
	}
	var want, have any
	if err := json.Unmarshal(wantRaw, &want); err != nil {
		t.Fatalf("decode %s: %v", goldenTinyPath, err)
	}
	if err := json.Unmarshal(raw, &have); err != nil {
		t.Fatal(err)
	}
	diffs := jsonDiff("", want, have)
	if len(diffs) == 0 {
		diffs = []string{"(documents differ only in formatting)"}
	}
	const shown = 20
	for i, d := range diffs {
		if i == shown {
			t.Errorf("... and %d more", len(diffs)-shown)
			break
		}
		t.Error(d)
	}
	t.Errorf("model output differs from %s in %d places; if the change is intended, run `make golden` and name the moved numbers in CHANGES.md", goldenTinyPath, len(diffs))
}

// jsonDiff lists the paths at which two decoded JSON documents differ,
// sorted, as "path: golden X, got Y" lines.
func jsonDiff(path string, want, have any) []string {
	wm, wok := want.(map[string]any)
	hm, hok := have.(map[string]any)
	if wok && hok {
		keys := map[string]bool{}
		for k := range wm {
			keys[k] = true
		}
		for k := range hm {
			keys[k] = true
		}
		var sorted []string
		for k := range keys {
			sorted = append(sorted, k)
		}
		sort.Strings(sorted)
		var out []string
		for _, k := range sorted {
			out = append(out, jsonDiff(path+"/"+k, wm[k], hm[k])...)
		}
		return out
	}
	wa, wok := want.([]any)
	ha, hok := have.([]any)
	if wok && hok && len(wa) == len(ha) {
		var out []string
		for i := range wa {
			out = append(out, jsonDiff(fmt.Sprintf("%s[%d]", path, i), wa[i], ha[i])...)
		}
		return out
	}
	if reflect.DeepEqual(want, have) {
		return nil
	}
	return []string{fmt.Sprintf("%s: golden %v, got %v", path, want, have)}
}
