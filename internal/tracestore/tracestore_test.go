package tracestore

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"os"
	"runtime"
	"testing"

	"exysim/internal/simpoint"
	"exysim/internal/trace"
)

func testConfig() simpoint.Config {
	cfg := simpoint.DefaultConfig()
	cfg.IntervalInsts = 6_000
	cfg.MaxK = 4
	return cfg
}

func ingestFixture(t testing.TB, s *Store) *Population {
	t.Helper()
	pop, dedup, err := s.IngestFile(fixturePath, IngestOptions{Name: "fixture", SimPoint: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if dedup {
		t.Fatal("fresh store reported dedup")
	}
	return pop
}

func TestIngestFixture(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	pop := ingestFixture(t, s)
	if len(pop.Slices) < 2 {
		t.Fatalf("fixture produced %d slices; its phase structure should give several", len(pop.Slices))
	}
	wsum := 0.0
	for i, sl := range pop.Slices {
		if sl.Weight <= 0 {
			t.Fatalf("slice %d has weight %v", i, sl.Weight)
		}
		wsum += sl.Weight
		if sl.Warmup == 0 && len(pop.Slices) > 1 && pop.Meta.Slices[i].Name != pop.Meta.Name+"@sp0" {
			t.Fatalf("slice %d (%s) has no warmup interval", i, sl.Name)
		}
		if sl.Suite != "trace" {
			t.Fatalf("slice %d suite %q", i, sl.Suite)
		}
	}
	if math.Abs(wsum-1) > 1e-9 {
		t.Fatalf("weights sum to %v, want 1", wsum)
	}
	if pop.Meta.ID == "" || pop.Meta.TotalInsts == 0 || pop.Meta.K < 2 {
		t.Fatalf("meta incomplete: %+v", pop.Meta)
	}

	// Second ingest of the same bytes+options: answered from the store.
	pop2, dedup, err := s.IngestFile(fixturePath, IngestOptions{Name: "fixture", SimPoint: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if !dedup || pop2.Meta.ID != pop.Meta.ID {
		t.Fatalf("re-ingest not deduped: dedup=%v id=%s want %s", dedup, pop2.Meta.ID, pop.Meta.ID)
	}

	// Different options are a different population.
	cfg := testConfig()
	cfg.IntervalInsts = 3_000
	pop3, dedup, err := s.IngestFile(fixturePath, IngestOptions{Name: "fixture", SimPoint: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if dedup || pop3.Meta.ID == pop.Meta.ID {
		t.Fatal("different interval length collapsed to the same population")
	}
}

func TestStorePersistsAcrossOpens(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	pop := ingestFixture(t, s)
	id := pop.Meta.ID

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !s2.Has(id) {
		t.Fatal("reopened store lost the population")
	}
	got, err := s2.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Slices) != len(pop.Slices) {
		t.Fatalf("reloaded %d slices, want %d", len(got.Slices), len(pop.Slices))
	}
	for i := range got.Slices {
		if got.Slices[i].Digest() != pop.Slices[i].Digest() {
			t.Fatalf("slice %d content changed across store round trip", i)
		}
		if got.Slices[i].Weight != pop.Slices[i].Weight {
			t.Fatalf("slice %d weight lost: %v vs %v", i, got.Slices[i].Weight, pop.Slices[i].Weight)
		}
	}
	metas, err := s2.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) != 1 || metas[0].ID != id {
		t.Fatalf("List: %+v", metas)
	}
	// Dedup index survives reopen too.
	if _, dedup, err := s2.IngestFile(fixturePath, IngestOptions{Name: "fixture", SimPoint: testConfig()}); err != nil || !dedup {
		t.Fatalf("reopened store re-analyzed a known source: dedup=%v err=%v", dedup, err)
	}
}

func TestStoreDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	pop := ingestFixture(t, s)
	// Flip a byte in a stored slice, then force a disk reload.
	path := dir + "/" + pop.Meta.ID + "/" + sliceFile(0)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Get(pop.Meta.ID); err == nil {
		t.Fatal("corrupted slice served without error")
	}
}

func TestBundleRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	pop := ingestFixture(t, s)
	var buf bytes.Buffer
	if err := WriteBundle(&buf, pop); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBundle(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta.ID != pop.Meta.ID || len(got.Slices) != len(pop.Slices) {
		t.Fatalf("bundle round trip: %+v", got.Meta)
	}
	for i := range got.Slices {
		if got.Slices[i].Digest() != pop.Slices[i].Digest() {
			t.Fatalf("slice %d changed across bundle round trip", i)
		}
	}
	// A flipped content byte must be rejected, not silently served.
	for off := len(buf.Bytes()) / 2; off < len(buf.Bytes()); off += 101 {
		data := append([]byte{}, buf.Bytes()...)
		data[off] ^= 0x20
		if _, err := ReadBundle(bytes.NewReader(data)); err == nil {
			// The flip may land in JSON whitespace or a name; only an
			// unchanged decode would be alarming. Verify digests still
			// guard the content path by checking the id.
			rt, _ := ReadBundle(bytes.NewReader(data))
			if rt != nil && rt.Meta.ID == pop.Meta.ID {
				same := len(rt.Slices) == len(pop.Slices)
				for i := 0; same && i < len(rt.Slices); i++ {
					same = rt.Slices[i].Digest() == pop.Slices[i].Digest()
				}
				if !same {
					t.Fatalf("corrupted bundle (byte %d) served altered content under the original id", off)
				}
			}
		}
	}
}

// synthChampStream synthesizes an n-record ChampSim stream on the fly —
// an io.Reader that never holds more than one record, standing in for an
// arbitrarily long trace file.
type synthChampStream struct {
	i, n int
	buf  []byte
}

func (s *synthChampStream) Read(p []byte) (int, error) {
	if len(s.buf) == 0 {
		if s.i >= s.n {
			return 0, io.EOF
		}
		rec := make([]byte, 64)
		// Two phases alternating every 100K insts; a taken conditional
		// branch every 8th record closes a small loop.
		base := uint64(0x10000)
		if (s.i/100_000)%2 == 1 {
			base = 0x900000
		}
		pc := base + uint64(s.i%8)*4
		binary.LittleEndian.PutUint64(rec[0:8], pc)
		if s.i%8 == 7 {
			rec[8], rec[9] = 1, 1
			rec[10] = 64              // writes IP
			rec[12], rec[13] = 64, 25 // reads IP, flags
		} else {
			rec[10] = 1
			rec[12] = 2
		}
		s.i++
		s.buf = rec
	}
	n := copy(p, s.buf)
	s.buf = s.buf[n:]
	return n, nil
}

// TestStreamingIngestBoundedMemory pins the tentpole's memory claim: the
// streaming analysis of a ChampSim source holds live-heap growth far
// below the materialized trace size, and growing the trace 4x leaves the
// footprint essentially flat (it scales with interval count — a few
// hundred 15-float vectors — never with instruction count).
func TestStreamingIngestBoundedMemory(t *testing.T) {
	cfg := simpoint.DefaultConfig()
	cfg.IntervalInsts = 10_000
	analyze := func(n int) (intervals int, growth int64) {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		cr, err := trace.NewChampSimReader(&synthChampStream{n: n}, 0)
		if err != nil {
			t.Fatal(err)
		}
		res, err := simpoint.AnalyzeStream(cr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&m1)
		return res.Intervals, int64(m1.HeapAlloc) - int64(m0.HeapAlloc)
	}
	n1, n4 := 500_000, 2_000_000
	i1, g1 := analyze(n1)
	i4, g4 := analyze(n4)
	t.Logf("streamed %d insts (%d intervals): heap growth %d bytes; %d insts (%d intervals): %d bytes",
		n1, i1, g1, n4, i4, g4)
	// Materializing 2M isa.Inst records would hold >=96 MB live; the
	// streaming path must stay under a small fixed bound regardless of
	// trace length.
	const bound = 16 << 20
	if g1 > bound || g4 > bound {
		t.Fatalf("streaming analysis grew the heap beyond %d bytes: n=%d -> %d, n=%d -> %d",
			int64(bound), n1, g1, n4, g4)
	}
	if i4 <= i1 {
		t.Fatalf("longer stream produced fewer intervals: %d vs %d", i4, i1)
	}
}
