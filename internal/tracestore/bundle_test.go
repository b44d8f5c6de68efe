package tracestore

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

// hostileBundle is a 6-byte body whose meta length prefix claims
// maxBundleSection (1 GiB) bytes, followed by one byte of them.
func hostileBundle() []byte {
	b := binary.AppendUvarint(nil, maxBundleSection)
	return append(b, '{')
}

// TestReadBundleAllocatesOnlyWhatArrives: a length prefix is a claim,
// not an allocation. A bundle claiming a 1 GiB section and delivering
// one byte of it must fail having allocated well under 1 MB.
func TestReadBundleAllocatesOnlyWhatArrives(t *testing.T) {
	body := hostileBundle()
	if len(body) != 6 {
		t.Fatalf("hostile body is %d bytes, want 6", len(body))
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	_, err := ReadBundle(bytes.NewReader(body))
	runtime.ReadMemStats(&m1)
	if err == nil {
		t.Fatal("a truncated 1 GiB section was accepted")
	}
	if got := m1.TotalAlloc - m0.TotalAlloc; got >= 1<<20 {
		t.Fatalf("reading a 6-byte body allocated %d bytes", got)
	}
}

// FuzzReadBundle hardens the bundle decoder fabric workers run on bytes
// from a peer: arbitrary input must error out or decode, never panic or
// allocate what it does not deliver, and every accepted bundle must
// re-encode to a bundle that verifies again under the same id. Fuzz it
// with a short minimization budget, or the default 60 s minimization
// of each new input stalls a short run:
//
//	go test -run '^$' -fuzz FuzzReadBundle -fuzztime 30s -fuzzminimizetime 2s ./internal/tracestore/
func FuzzReadBundle(f *testing.F) {
	s, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	// The committed fixture's first 4,000 instructions in 1,000-
	// instruction SimPoint slices: a small seed keeps each execution,
	// and the minimization of each new input, fast.
	cfg := testConfig()
	cfg.IntervalInsts, cfg.MaxK = 1_000, 2
	pop, _, err := s.IngestFile(fixturePath, IngestOptions{Name: "fixture", SimPoint: cfg, MaxInsts: 4_000})
	if err != nil {
		f.Fatal(err)
	}
	var fixture bytes.Buffer
	if err := WriteBundle(&fixture, pop); err != nil {
		f.Fatal(err)
	}
	f.Add(fixture.Bytes())
	f.Add(fixture.Bytes()[:fixture.Len()/2])
	f.Add(hostileBundle())
	f.Fuzz(func(t *testing.T, data []byte) {
		pop, err := ReadBundle(bytes.NewReader(data))
		if err != nil {
			return
		}
		var again bytes.Buffer
		if err := WriteBundle(&again, pop); err != nil {
			t.Fatalf("accepted bundle does not re-encode: %v", err)
		}
		rt, err := ReadBundle(&again)
		if err != nil {
			t.Fatalf("accepted bundle does not re-verify: %v", err)
		}
		if rt.Meta.ID != pop.Meta.ID || len(rt.Slices) != len(pop.Slices) {
			t.Fatalf("re-encoded bundle changed: id %s → %s, %d → %d slices",
				pop.Meta.ID, rt.Meta.ID, len(pop.Slices), len(rt.Slices))
		}
	})
}
