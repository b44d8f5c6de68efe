// Round-trip and version-gate tests for the shared JSON result schema.
package experiments

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestSummaryDocRoundTrip(t *testing.T) {
	p := mustRun(t, tinyPop)
	doc := p.SummaryDoc()
	if doc.SchemaVersion != ResultsSchemaVersion {
		t.Fatalf("schema_version = %d, want %d", doc.SchemaVersion, ResultsSchemaVersion)
	}
	if len(doc.Generations) != 6 || doc.Slices != len(p.Slices) {
		t.Fatalf("doc shape wrong: %+v", doc)
	}
	for _, name := range MetricNames() {
		per, ok := doc.Means[name]
		if !ok || len(per) != 6 {
			t.Fatalf("metric %q missing or short: %v", name, per)
		}
	}
	b, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	var got SummaryDoc
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, doc) {
		t.Fatalf("round trip drifted:\n  in:  %+v\n  out: %+v", doc, got)
	}
	// Two sweeps of the same spec must emit byte-identical documents.
	b2, err := json.Marshal(mustRun(t, tinyPop).SummaryDoc())
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != string(b2) {
		t.Fatal("identical specs produced different summary documents")
	}
}

func TestCurveDocRoundTrip(t *testing.T) {
	p := mustRun(t, tinyPop)
	doc, err := p.CurveDoc("fig9", "mpki", 8)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Metric != "mpki" || doc.Figure != "fig9" {
		t.Fatalf("doc header wrong: %+v", doc)
	}
	for _, g := range doc.Generations {
		if len(doc.Curves[g]) != 8 {
			t.Fatalf("gen %s curve has %d points, want 8", g, len(doc.Curves[g]))
		}
	}
	b, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	var got CurveDoc
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, doc) {
		t.Fatal("curve doc round trip drifted")
	}
	if _, err := p.CurveDoc("fig9", "nosuch", 8); err == nil {
		t.Fatal("unknown metric accepted")
	}
}

func TestResultDocsRejectNewerSchema(t *testing.T) {
	var s SummaryDoc
	err := json.Unmarshal([]byte(`{"schema_version":99}`), &s)
	if err == nil || !strings.Contains(err.Error(), "schema_version 99") {
		t.Fatalf("future summary accepted: %v", err)
	}
	var c CurveDoc
	err = json.Unmarshal([]byte(`{"schema_version":99}`), &c)
	if err == nil || !strings.Contains(err.Error(), "schema_version 99") {
		t.Fatalf("future curve accepted: %v", err)
	}
	// Legacy documents (no stamp) are rejected too.
	for name, doc := range map[string]any{"summary": &SummaryDoc{}, "curve": &CurveDoc{}, "shard": &ShardDoc{}} {
		err := json.Unmarshal([]byte(`{"figure":"fig9","metric":"mpki","gen_name":"M1"}`), doc)
		if err == nil || !strings.Contains(err.Error(), "schema_version 0") {
			t.Fatalf("unstamped %s accepted: %v", name, err)
		}
	}
}

func TestMetricByName(t *testing.T) {
	for _, name := range MetricNames() {
		if _, ok := MetricByName(name); !ok {
			t.Fatalf("canonical metric %q unresolvable", name)
		}
	}
	if _, ok := MetricByName("cycles"); ok {
		t.Fatal("unknown metric resolved")
	}
}
