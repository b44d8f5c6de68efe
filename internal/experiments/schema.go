// Versioned JSON result documents. These are the wire forms shared by
// `exysim --format json`, the exyserve daemon's responses, and any
// external consumer: every document carries a schema_version stamp, and
// decoding rejects any document not stamped with the current schema —
// unstamped or newer — instead of silently misreading it.
package experiments

import (
	"encoding/json"
	"fmt"
)

// ResultsSchemaVersion is the version stamped into SummaryDoc, CurveDoc,
// ShardDoc and served slice documents. Bump it when a field changes
// meaning or disappears; adding optional fields does not require a bump.
const ResultsSchemaVersion = 1

// checkSchema rejects a document of the named kind whose stamp is not
// ResultsSchemaVersion: an unstamped (0) document or a newer one.
func checkSchema(kind string, v int) error {
	if v != ResultsSchemaVersion {
		return fmt.Errorf("experiments: %s schema_version %d, want %d", kind, v, ResultsSchemaVersion)
	}
	return nil
}

// MetricNames returns the canonical wire names accepted by
// MetricByName, in presentation order.
func MetricNames() []string {
	return []string{"mpki", "ipc", "load_lat", "epki"}
}

// MetricByName resolves a wire metric name to its extractor.
func MetricByName(name string) (Metric, bool) {
	switch name {
	case "mpki":
		return MetricMPKI, true
	case "ipc":
		return MetricIPC, true
	case "load_lat":
		return MetricLoadLat, true
	case "epki":
		return MetricEPKI, true
	}
	return nil, false
}

// SummaryDoc is the structured form of a population run's headline
// numbers: per-generation means of every metric, plus the sweep's
// robustness tallies. It deliberately carries no wall-clock fields so
// that two runs of the same spec produce byte-identical documents.
type SummaryDoc struct {
	SchemaVersion int                           `json:"schema_version"`
	Generations   []string                      `json:"generations"`
	Slices        int                           `json:"slices"`
	InstsPerSlice int                           `json:"insts_per_slice"`
	Means         map[string]map[string]float64 `json:"means"` // metric → generation → mean

	// Trace is the content address of the ingested trace population the
	// run swept (empty for synthetic populations), and WeightedMeans are
	// the SimPoint-weighted per-generation estimates — the representative
	// statistic for real traces, present only when the population carries
	// SimPoint weights. Both are optional: ResultsSchemaVersion is
	// unchanged and synthetic-run documents are byte-identical to before.
	Trace         string                        `json:"trace,omitempty"`
	WeightedMeans map[string]map[string]float64 `json:"weighted_means,omitempty"`

	Failures int `json:"failures,omitempty"`
	Retries  int `json:"retries,omitempty"`
	Resumed  int `json:"resumed,omitempty"`
}

// SummaryDoc builds the versioned summary document for this run.
func (p *PopulationRun) SummaryDoc() SummaryDoc {
	d := SummaryDoc{
		SchemaVersion: ResultsSchemaVersion,
		Slices:        len(p.Slices),
		InstsPerSlice: p.Spec.InstsPerSlice,
		Means:         map[string]map[string]float64{},
		Failures:      len(p.Failures),
		Retries:       p.Retries,
		Resumed:       p.Resumed,
	}
	for _, g := range p.Gens {
		d.Generations = append(d.Generations, g.Name)
	}
	for _, name := range MetricNames() {
		m, _ := MetricByName(name)
		per := map[string]float64{}
		for g, v := range p.Means(m) {
			per[p.Gens[g].Name] = v
		}
		d.Means[name] = per
	}
	d.Trace = p.PopID
	if p.Weighted() {
		d.WeightedMeans = map[string]map[string]float64{}
		for _, name := range MetricNames() {
			m, _ := MetricByName(name)
			per := map[string]float64{}
			for g, v := range p.WeightedMeans(m) {
				per[p.Gens[g].Name] = v
			}
			d.WeightedMeans[name] = per
		}
	}
	return d
}

// UnmarshalJSON decodes a summary document stamped with
// ResultsSchemaVersion.
func (d *SummaryDoc) UnmarshalJSON(b []byte) error {
	type alias SummaryDoc // plain struct: no custom decoder, no recursion
	var a alias
	if err := json.Unmarshal(b, &a); err != nil {
		return err
	}
	if err := checkSchema("summary", a.SchemaVersion); err != nil {
		return err
	}
	*d = SummaryDoc(a)
	return nil
}

// CurveDoc is the structured form of one population figure: the sorted
// per-generation curves of a single metric plus its means.
type CurveDoc struct {
	SchemaVersion int                  `json:"schema_version"`
	Figure        string               `json:"figure"`
	Metric        string               `json:"metric"`
	Generations   []string             `json:"generations"`
	Curves        map[string][]float64 `json:"curves"`
	Means         map[string]float64   `json:"means"`
}

// CurveDoc builds the versioned curve document for one figure. The
// metric is named in wire form ("mpki", "ipc", "load_lat", "epki") so
// the document records which quantity it plots.
func (p *PopulationRun) CurveDoc(figure, metric string, points int) (CurveDoc, error) {
	m, ok := MetricByName(metric)
	if !ok {
		return CurveDoc{}, fmt.Errorf("experiments: unknown metric %q", metric)
	}
	d := CurveDoc{
		SchemaVersion: ResultsSchemaVersion,
		Figure:        figure,
		Metric:        metric,
		Curves:        map[string][]float64{},
		Means:         map[string]float64{},
	}
	curves := p.Curves(m, points)
	means := p.Means(m)
	for g := range p.Gens {
		gn := p.Gens[g].Name
		d.Generations = append(d.Generations, gn)
		d.Curves[gn] = curves[g]
		d.Means[gn] = means[g]
	}
	return d, nil
}

// UnmarshalJSON decodes a curve document stamped with
// ResultsSchemaVersion.
func (d *CurveDoc) UnmarshalJSON(b []byte) error {
	type alias CurveDoc
	var a alias
	if err := json.Unmarshal(b, &a); err != nil {
		return err
	}
	if err := checkSchema("curve", a.SchemaVersion); err != nil {
		return err
	}
	*d = CurveDoc(a)
	return nil
}
