package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestRegistryScopesAndSnapshot(t *testing.T) {
	r := NewRegistry()
	var hits, misses uint64
	mem := r.Scope("mem")
	l1 := mem.Child("l1d")
	l1.Counter("hits", func() uint64 { return hits })
	l1.Counter("misses", func() uint64 { return misses })
	mem.Gauge("hit_rate", func() float64 {
		if hits+misses == 0 {
			return 0
		}
		return float64(hits) / float64(hits+misses)
	})

	hits, misses = 30, 10
	s := r.Snapshot()
	if got := s.Get("mem.l1d.hits"); got != 30 {
		t.Fatalf("mem.l1d.hits = %v, want 30", got)
	}
	if got := s.Get("mem.hit_rate"); got != 0.75 {
		t.Fatalf("mem.hit_rate = %v, want 0.75", got)
	}
	names := s.Names()
	if len(names) != 3 || names[0] != "mem.hit_rate" {
		t.Fatalf("unexpected sorted names %v", names)
	}
}

func TestRegistryResetRebasesCounters(t *testing.T) {
	r := NewRegistry()
	var n uint64 = 100
	sc := r.Scope("branch")
	sc.Counter("mispredicts", func() uint64 { return n })
	sc.Gauge("mpki", func() float64 { return float64(n) / 10 })

	r.Reset() // warmup boundary: counters rebase, gauges don't
	n = 130
	s := r.Snapshot()
	if got := s.Get("branch.mispredicts"); got != 30 {
		t.Fatalf("post-reset counter = %v, want 30", got)
	}
	if got := s.Get("branch.mpki"); got != 13 {
		t.Fatalf("gauge should be unaffected by reset, got %v", got)
	}
}

func TestSnapshotDiff(t *testing.T) {
	r := NewRegistry()
	var n uint64
	r.Scope("").Counter("steps", func() uint64 { return n })
	n = 5
	a := r.Snapshot()
	n = 12
	b := r.Snapshot()
	d := b.Diff(a)
	if got := d.Get("steps"); got != 7 {
		t.Fatalf("diff = %v, want 7", got)
	}
}

func TestSnapshotJSONRoundTrips(t *testing.T) {
	r := NewRegistry()
	r.Scope("dram").Counter("row_hits", func() uint64 { return 42 })
	var buf bytes.Buffer
	if err := r.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var m map[string]float64
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatalf("snapshot JSON does not parse: %v\n%s", err, buf.String())
	}
	if m["dram.row_hits"] != 42 {
		t.Fatalf("round-trip lost value: %v", m)
	}
}

func TestTracerRingAndJSON(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 6; i++ {
		tr.Span("fetch", "bubble", uint64(i*10), 2, LaneFetch)
	}
	if tr.Len() != 4 {
		t.Fatalf("ring should hold 4, has %d", tr.Len())
	}
	if tr.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", tr.Dropped())
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace JSON does not parse: %v\n%s", err, buf.String())
	}
	// 6 lane-name metadata events + 4 ring entries.
	if len(doc.TraceEvents) != len(laneNames)+4 {
		t.Fatalf("got %d events, want %d", len(doc.TraceEvents), len(laneNames)+4)
	}
	// Oldest surviving event is ts=20 and events replay in order.
	var spans []map[string]any
	for _, e := range doc.TraceEvents {
		if e["ph"] == "X" {
			spans = append(spans, e)
		}
	}
	if got := spans[0]["ts"].(float64); got != 20 {
		t.Fatalf("oldest span ts = %v, want 20", got)
	}
	if got := spans[len(spans)-1]["ts"].(float64); got != 50 {
		t.Fatalf("newest span ts = %v, want 50", got)
	}
}

func TestTracerSamplingDeterministic(t *testing.T) {
	tr := NewTracer(100)
	tr.SetSampling(10)
	for i := 0; i < 100; i++ {
		tr.Instant("mem", "row-activate", uint64(i), LaneDRAM)
	}
	if tr.Len() != 10 {
		t.Fatalf("1-in-10 sampling kept %d of 100", tr.Len())
	}
}

func TestDisabledTracerIsNilSafe(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	tr.Span("a", "b", 0, 1, 0)
	tr.Instant("a", "b", 0, 0)
	tr.SetSampling(4)
	if tr.Len() != 0 || tr.Dropped() != 0 {
		t.Fatal("nil tracer accumulated state")
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "traceEvents") {
		t.Fatal("nil tracer should still emit a valid empty trace")
	}
}

func TestManifestFinishComputesThroughput(t *testing.T) {
	m := NewManifest("run")
	m.StartTime = time.Now().Add(-2 * time.Second)
	m.SimInsts = 4_000_000
	m.SimCycles = 2_000_000
	m.AddArtifact("metrics", "m.json")
	m.Finish()
	if m.WallSeconds < 1.9 {
		t.Fatalf("wall seconds = %v", m.WallSeconds)
	}
	// ~2 MIPS over ~2s; allow slack for scheduling.
	if m.SimMIPS < 1.5 || m.SimMIPS > 2.5 {
		t.Fatalf("sim MIPS = %v, want ~2", m.SimMIPS)
	}
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{ManifestSchema, "sim_mips", "m.json"} {
		if !strings.Contains(string(b), want) {
			t.Fatalf("manifest JSON missing %q: %s", want, b)
		}
	}
}

func TestConfigDigestStableAndSensitive(t *testing.T) {
	type cfg struct{ A, B int }
	d1 := ConfigDigest(cfg{1, 2})
	d2 := ConfigDigest(cfg{1, 2})
	d3 := ConfigDigest(cfg{1, 3})
	if d1 != d2 {
		t.Fatalf("digest not stable: %s vs %s", d1, d2)
	}
	if d1 == d3 {
		t.Fatal("digest insensitive to config change")
	}
	if len(d1) != 16 {
		t.Fatalf("digest %q not 16 hex chars", d1)
	}
}

func TestProgressReports(t *testing.T) {
	// bar drives a reporter through the calls a sweep's progress hook
	// makes: (resumed, total, 0) first, then one per finished unit, with
	// concurrent workers' counts arriving out of order.
	bar := func(resumed, total int, order []int) string {
		var buf bytes.Buffer
		p := NewProgress(&buf, "sweep")
		base := time.Now()
		tick := 0
		p.now = func() time.Time { tick++; return base.Add(time.Duration(tick) * time.Second) }
		p.Report(resumed, total, 0)
		for _, done := range order {
			p.Report(done, total, 1_000_000)
		}
		p.Finish()
		return buf.String()
	}
	if out := bar(0, 4, []int{1, 2, 4, 3}); !strings.Contains(out, "4/4 (100%)") || !strings.Contains(out, "sim-MIPS") {
		t.Fatalf("progress output missing fields: %q", out)
	}
	// A resumed sweep reports its restored units first and simulates
	// only the rest; its bar still ends at total/total.
	out := bar(3, 5, []int{5, 4})
	if !strings.HasPrefix(out, "\rsweep: 3/5 (60%)") {
		t.Fatalf("resumed bar does not start at the restored units: %q", out)
	}
	if last := out[strings.LastIndex(out, "\r"):]; !strings.HasPrefix(last, "\rsweep: 5/5 (100%)") {
		t.Fatalf("resumed bar ends at %q, want 5/5", last)
	}
}

func TestTracerResetClearsRingKeepsConfig(t *testing.T) {
	tr := NewTracer(4)
	tr.SetSampling(2)
	for i := 0; i < 10; i++ {
		tr.Span("fetch", "bubble", uint64(i), 1, LaneFetch)
	}
	if tr.Len() == 0 {
		t.Fatal("setup: nothing recorded")
	}
	tr.Reset()
	if tr.Len() != 0 || tr.Dropped() != 0 {
		t.Fatalf("Reset left %d events, %d dropped", tr.Len(), tr.Dropped())
	}
	// Sampling survives Reset; the modulus phase restarts from zero, so a
	// recycled tracer samples exactly like a fresh one with the same config.
	fresh := NewTracer(4)
	fresh.SetSampling(2)
	for i := 0; i < 10; i++ {
		tr.Span("fetch", "bubble", uint64(i), 1, LaneFetch)
		fresh.Span("fetch", "bubble", uint64(i), 1, LaneFetch)
	}
	var a, b bytes.Buffer
	if err := tr.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := fresh.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("recycled tracer output differs from fresh:\n%s\nvs\n%s", a.String(), b.String())
	}
	// Nil tracer: Reset must be a no-op, not a crash.
	var nilTr *Tracer
	nilTr.Reset()
}

func TestTracerWriteJSONDeterministic(t *testing.T) {
	tr := NewTracer(8)
	tr.Span("fetch", "bubble", 1, 2, LaneFetch)
	tr.Instant("mem", "fill", 3, LaneMem)
	var a, b bytes.Buffer
	if err := tr.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two writes of the same ring produced different bytes")
	}
}

func TestManifestRobustnessBlock(t *testing.T) {
	m := NewManifest("run")
	m.Robustness = &RobustnessInfo{Failures: 2, Panics: 1, Timeouts: 1, Retries: 3, ResumedSlices: 5}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(m); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	for _, want := range []string{`"failures":2`, `"panics":1`, `"timeouts":1`, `"retries":3`, `"resumed_slices":5`} {
		if !strings.Contains(s, want) {
			t.Fatalf("manifest JSON missing %s:\n%s", want, s)
		}
	}
	// A clean run omits the block entirely.
	clean := NewManifest("run")
	buf.Reset()
	if err := json.NewEncoder(&buf).Encode(clean); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "robustness") {
		t.Fatal("clean manifest should omit the robustness block")
	}
}
