package tracestore

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"exysim/internal/trace"
)

// Bundle wire format
//
// A bundle serializes one population for transfer between fabric peers
// (a worker fetching a coordinator's population on cache miss):
//
//	uvarint meta-JSON length, meta JSON
//	per slice (Meta.Slices order): uvarint EXYT length, EXYT stream
//
// Each section is length-prefixed because the EXYT decoder reads through
// a buffered reader of its own; prefixes let the receiver hand each
// decoder exactly its bytes. A prefix is a claim, not an allocation:
// ReadBundle reads each section through a reader limited to it, so it
// holds only what arrives. It re-derives the content id from the
// decoded slices and rejects a bundle whose bytes do not hash to the id
// its metadata claims — a peer cannot serve altered content.

const maxBundleSection = 1 << 30 // hard cap per length prefix

// WriteBundle serializes the population to w.
func WriteBundle(w io.Writer, p *Population) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	var scratch [binary.MaxVarintLen64]byte
	putLen := func(n int) error {
		k := binary.PutUvarint(scratch[:], uint64(n))
		_, err := bw.Write(scratch[:k])
		return err
	}
	meta, err := json.Marshal(p.Meta)
	if err != nil {
		return err
	}
	if err := putLen(len(meta)); err != nil {
		return err
	}
	if _, err := bw.Write(meta); err != nil {
		return err
	}
	var buf bytes.Buffer
	for i, sl := range p.Slices {
		buf.Reset()
		if err := trace.Write(&buf, sl); err != nil {
			return fmt.Errorf("tracestore: bundle slice %d: %w", i, err)
		}
		if err := putLen(buf.Len()); err != nil {
			return err
		}
		if _, err := bw.Write(buf.Bytes()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBundle deserializes a population written by WriteBundle and
// verifies its content: every slice's digest must match the bundled
// metadata, and the metadata's id must match the digest-derived
// population id.
func ReadBundle(r io.Reader) (*Population, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	// section reads one length prefix and returns a reader of that many
	// bytes; end checks they all arrived, skipping any the section's
	// decoder left unread.
	section := func(what string) (*io.LimitedReader, error) {
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("tracestore: bundle %s length: %w", what, err)
		}
		if n > maxBundleSection {
			return nil, fmt.Errorf("tracestore: bundle %s length %d exceeds cap", what, n)
		}
		return &io.LimitedReader{R: br, N: int64(n)}, nil
	}
	end := func(what string, sec *io.LimitedReader) error {
		if _, err := io.Copy(io.Discard, sec); err != nil {
			return fmt.Errorf("tracestore: bundle %s: %w", what, err)
		}
		if sec.N > 0 {
			return fmt.Errorf("tracestore: bundle %s: %w", what, io.ErrUnexpectedEOF)
		}
		return nil
	}
	sec, err := section("meta")
	if err != nil {
		return nil, err
	}
	metaBuf, err := io.ReadAll(sec)
	if err != nil {
		return nil, fmt.Errorf("tracestore: bundle meta: %w", err)
	}
	if err := end("meta", sec); err != nil {
		return nil, err
	}
	var meta Meta
	if err := json.Unmarshal(metaBuf, &meta); err != nil {
		return nil, fmt.Errorf("tracestore: bundle meta: %w", err)
	}
	if meta.SchemaVersion > MetaSchemaVersion {
		return nil, fmt.Errorf("tracestore: bundle schema version %d is newer than supported %d",
			meta.SchemaVersion, MetaSchemaVersion)
	}
	pop := &Population{Meta: meta, Slices: make([]*trace.Slice, len(meta.Slices))}
	for i, sm := range meta.Slices {
		what := fmt.Sprintf("slice %d", i)
		sec, err := section(what)
		if err != nil {
			return nil, err
		}
		sl, err := trace.Read(sec)
		if err != nil {
			return nil, fmt.Errorf("tracestore: bundle %s: %w", what, err)
		}
		if err := end(what, sec); err != nil {
			return nil, err
		}
		if got := fmt.Sprintf("%016x", sl.Digest()); got != sm.Digest {
			return nil, fmt.Errorf("tracestore: bundle slice %d (%s): digest %s does not match metadata %s",
				i, sm.Name, got, sm.Digest)
		}
		pop.Slices[i] = sl
	}
	if id := PopulationID(pop.Slices, meta.SimPoint); id != meta.ID {
		return nil, fmt.Errorf("tracestore: bundle content hashes to %s but claims id %s", id, meta.ID)
	}
	return pop, nil
}
