package snapshot

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// wordZeroPrefixLen is the word-at-a-time zero scan the block scan
// replaced, kept as the reference the images must stay identical to.
func wordZeroPrefixLen(b []byte) int {
	n := 0
	for n+8 <= len(b) && binary.LittleEndian.Uint64(b[n:]) == 0 {
		n += 8
	}
	for n < len(b) && b[n] == 0 {
		n++
	}
	return n
}

// wordEncodePOD is encodePOD built on wordZeroPrefixLen.
func wordEncodePOD(data []byte, b []byte) []byte {
	for len(b) > 0 {
		z := wordZeroPrefixLen(b)
		if z < zeroRunMin && z < len(b) {
			z = 0
		}
		rest := b[z:]
		lit := len(rest)
		for i := 0; i+8 <= len(rest); {
			if binary.LittleEndian.Uint64(rest[i:]) != 0 {
				i += 8
				continue
			}
			n := wordZeroPrefixLen(rest[i:])
			if n >= zeroRunMin {
				lit = i
				break
			}
			i += n
		}
		data = binary.AppendUvarint(data, uint64(z))
		data = binary.AppendUvarint(data, uint64(lit))
		data = append(data, rest[:lit]...)
		b = rest[lit:]
	}
	return data
}

// sparseBuffer builds a random buffer of alternating zero runs and
// nonzero bursts. Run lengths favour the scan's edges: a word, the
// 64-byte record minimum and the 4 KiB block, each ±1.
func sparseBuffer(r *rand.Rand) []byte {
	edges := []int{0, 1, 7, 8, 9, 63, 64, 65, 4095, 4096, 4097, 8192}
	var b []byte
	for parts := 1 + r.Intn(8); parts > 0; parts-- {
		zeros := edges[r.Intn(len(edges))]
		if r.Intn(3) == 0 {
			zeros = r.Intn(3 * len(zeroBlock))
		}
		b = append(b, make([]byte, zeros)...)
		for burst := r.Intn(80); burst > 0; burst-- {
			v := byte(r.Intn(256))
			if r.Intn(4) == 0 {
				v = 0 // zeros inside a literal, too short to split it
			}
			b = append(b, v)
		}
	}
	// Start the buffer off a word boundary half of the time, as a POD
	// field inside a struct may.
	return b[r.Intn(2):]
}

// TestZeroScanMatchesWordLoop: the block zero scan returns the same
// prefix length as the word loop, and encodes random sparse buffers to
// the same bytes.
func TestZeroScanMatchesWordLoop(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		b := sparseBuffer(r)
		for _, off := range []int{0, len(b) / 3, len(b) / 2} {
			if got, want := zeroPrefixLen(b[off:]), wordZeroPrefixLen(b[off:]); got != want {
				t.Fatalf("buffer %d at %d: zero prefix %d, word loop %d", i, off, got, want)
			}
		}
		if got, want := encodePOD(nil, b), wordEncodePOD(nil, b); !bytes.Equal(got, want) {
			t.Fatalf("buffer %d (%d bytes): encoding differs from the word loop's\n got  %x\n want %x", i, len(b), got, want)
		}
	}
}

// TestClearDirtyZeroes: clearDirty leaves every byte of a random
// sparse buffer zero, and leaves the bytes around it alone.
func TestClearDirtyZeroes(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 3000; i++ {
		b := sparseBuffer(r)
		framed := append(append([]byte{0xAA}, b...), 0xBB)
		clearDirty(framed[1 : len(framed)-1])
		if framed[0] != 0xAA || framed[len(framed)-1] != 0xBB {
			t.Fatalf("buffer %d: clearDirty wrote outside its span", i)
		}
		if n := zeroPrefixLen(framed[1 : len(framed)-1]); n != len(b) {
			t.Fatalf("buffer %d (%d bytes): nonzero byte left at %d", i, len(b), n)
		}
	}
}
