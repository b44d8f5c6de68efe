package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// metricSpec names one metric the benchmark reports and its unit. The
// lists below are the benchmark's contract: BENCHMARK.json at the repo
// root repeats them, and report_test.go keeps the two in step.
type metricSpec struct {
	Name, Unit string
}

// endToEnd are the untraced run's metrics (--trace 0), printed on every
// workload. error_rate, ipc_gain_err_pct and load_lat_drop_err_pct are
// printed in the human-readable table but are per-layer metrics: the
// first is 0 on a healthy build, and the other two move with the seed
// far more than any bound allows (see README.md, "Steadiness").
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"op_p50_s", "s"},
	{"op_tail_s", "s"},
	{"sim_insts_per_s", "insts/s"},
	{"peak_rss_mb", "MB"},
	{"retained_heap_mb", "MB"},
}

// layerGens are the generations the per-layer replays cover. M7 is the
// op's own hypothetical on lab_m7 and reads 0 elsewhere.
var layerGens = []string{"M1", "M6", "M7"}

// modelGens are the generations whose simulated results are reported.
var modelGens = []string{"M1", "M2", "M3", "M4", "M5", "M6", "M7"}

// perLayer are the traced run's metrics (--trace 1). A layer a workload
// does not exercise reads 0 there.
var perLayer = buildPerLayer()

func buildPerLayer() []metricSpec {
	m := []metricSpec{
		{"workload.suite_s", "s"},
		{"trace.predecode_ns_per_inst", "ns"},
		{"trace.champsim_ns_per_inst", "ns"},
		{"simpoint.analyze_s", "s"},
		{"tracestore.ingest_s", "s"},
		{"tracestore.hit_ratio", "ratio"},
	}
	perGen := func(prefix, unit string, gens []string) {
		for _, g := range gens {
			m = append(m, metricSpec{prefix + "." + g, unit})
		}
	}
	perGen("core.construct_ms", "ms", layerGens)
	perGen("core.reset_ms", "ms", layerGens)
	perGen("snapshot.capture_ms", "ms", layerGens)
	perGen("snapshot.restore_ms", "ms", layerGens)
	perGen("snapshot.image_mb", "MB", layerGens)
	perGen("step.ns_per_inst", "ns", layerGens)
	perGen("step.classic_ns_per_inst", "ns", []string{"M1", "M6"})
	perGen("pipeline.self_ns_per_inst", "ns", layerGens)
	perGen("branch.ns_per_inst", "ns", layerGens)
	perGen("mem.ns_per_access", "ns", layerGens)
	m = append(m,
		metricSpec{"robust.guard_ns_per_inst", "ns"},
		metricSpec{"experiments.sims_built_per_op", "count"},
		metricSpec{"warm.forks_per_op", "count"},
		metricSpec{"warm.captures_per_op", "count"},
		metricSpec{"warm.capture_reuse_ratio", "ratio"},
		metricSpec{"warm.evictions_per_op", "count"},
		metricSpec{"warm.snapshot_mb", "MB"},
		metricSpec{"warm.decode_hit_ratio", "ratio"},
		metricSpec{"fabric.shard_cache_hit_ratio", "ratio"},
		metricSpec{"fabric.shards_per_op", "count"},
		metricSpec{"fabric.leases_per_op", "count"},
		metricSpec{"fabric.steals", "count"},
		metricSpec{"fabric.shard_errors", "count"},
		metricSpec{"fabric.local_runs", "count"},
		metricSpec{"fabric.shard_wall_s", "s"},
		metricSpec{"fabric.overhead_s", "s"},
		metricSpec{"serve.submit_ms", "ms"},
		metricSpec{"serve.result_ms", "ms"},
		metricSpec{"serve.queue_wait_ms", "ms"},
		metricSpec{"serve.run_s", "s"},
		metricSpec{"serve.cache_hit_ratio", "ratio"},
		metricSpec{"serve.pop_job_p50_s", "s"},
		metricSpec{"serve.slice_job_p50_s", "s"},
		metricSpec{"serve.trace_job_p50_s", "s"},
		metricSpec{"serve.cached_job_p50_s", "s"},
		metricSpec{"serve.trace_upload_s", "s"},
		metricSpec{"serve.jobs_retained", "count"},
		metricSpec{"go.alloc_mb_per_op", "MB"},
		metricSpec{"go.gc_per_op", "count"},
		metricSpec{"go.gc_pause_ms_per_op", "ms"},
	)
	perGen("model.ipc", "ipc", modelGens)
	perGen("model.mpki", "mpki", modelGens)
	perGen("model.load_lat", "cycles", modelGens)
	m = append(m,
		metricSpec{"ipc_gain_err_pct", "%"},
		metricSpec{"load_lat_drop_err_pct", "%"},
		metricSpec{"error_rate", "ratio"},
		metricSpec{"op_tail_pct", "%"},
		metricSpec{"op_count", "count"},
	)
	for _, l := range spanLayers {
		m = append(m, metricSpec{"self_ms." + l, "ms"})
	}
	m = append(m,
		metricSpec{"bench.unattributed_frac", "ratio"},
		metricSpec{"bench.trace_overhead_frac", "ratio"},
	)
	return m
}

// report collects one run's outcome and metric values.
type report struct {
	attempted, failed int
	values            map[string]float64
	notes             []string // human-readable lines printed above the table
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// errorRate is failed ÷ attempted ops.
func (r *report) errorRate() float64 {
	if r.attempted == 0 {
		return 0
	}
	return float64(r.failed) / float64(r.attempted)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// write prints the notes, one "name value unit" line per metric of
// specs, and last the one-line JSON result holding exactly specs. A
// metric the run did not set, or a non-finite value, is a benchmark
// bug and fails the write rather than printing a partial contract.
func (r *report) write(w io.Writer, workload string, specs []metricSpec) error {
	out := jsonResult{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]jsonMetric{},
	}
	var b strings.Builder
	for _, n := range r.notes {
		fmt.Fprintf(&b, "# %s\n", n)
	}
	fmt.Fprintf(&b, "# %s: %d ops attempted, %d failed, error_rate %.4g\n",
		workload, r.attempted, r.failed, r.errorRate())
	for _, s := range specs {
		v, ok := r.values[s.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", s.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is not finite (%v)", s.Name, v)
		}
		fmt.Fprintf(&b, "%-34s %16.6g %s\n", s.Name, v, s.Unit)
		out.Metrics[s.Name] = jsonMetric{Value: v, Unit: s.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	b.Write(line)
	b.WriteByte('\n')
	_, err = io.WriteString(w, b.String())
	return err
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile of xs that has at least beyond
// samples above it, with the percentile itself (the share of samples at
// or below it, in %). ok is false when the run is too short to have one.
func tail(xs []float64, beyond int) (v, pct float64, ok bool) {
	i := len(xs) - 1 - beyond
	if i < 0 {
		return 0, 0, false
	}
	s := sortedCopy(xs)
	return s[i], 100 * float64(i+1) / float64(len(s)), true
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when b is 0 (a counter with no attempts).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
