// Package snapshot deep-copies the mutable state of an object graph
// into a flat image and restores it later: capture a simulator after a
// slice's warmup, then restore it into a sibling. No sweep forks warm
// state any more (a recurring cell comes from the result store); the
// codec's only non-test caller is core.Simulator.CaptureState and
// RestoreState, which the benchmark's snapshot.* layer rows time
// (perfbench/layers.go).
//
// The codec walks a root pointer's reachable graph with reflection and
// copies raw memory with unsafe: pointer-free ("POD") regions — which is
// almost all simulator state: counter arrays, table storage, ring
// buffers — are bulk-copied byte-for-byte, pointers are followed once
// (an aliased pointer, like a power meter shared by two subsystems, is
// captured a single time and recognized on restore), strings are
// rebound, and maps with POD keys and values are cleared and refilled.
// Restore never allocates simulator state and never creates objects: it
// overwrites the target graph in place, which must therefore have the
// same shape as the captured one — same types, same slice lengths, same
// nil-ness, same aliasing. That is exactly what two simulators built
// from the same configuration (or one simulator across Reset cycles)
// guarantee. Any divergence is a structural error, never a silent
// partial restore.
//
// Types listed in NewCodec's skip set (observability hooks like
// *obs.Tracer) are treated as external wiring: not captured, left
// untouched on restore. Func fields are likewise left alone — they are
// code, not state. Interfaces holding a non-nil pointer (pluggable
// components such as a direction-predictor engine) are captured with
// their dynamic type name and restored in place after the target is
// verified to hold the same dynamic type. Channels, value-shaped
// interfaces, and unsafe.Pointer fields are rejected loudly: supporting
// them safely needs knowledge this generic walker does not have.
package snapshot

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"unsafe"
)

// Image is one captured state snapshot. It is immutable after Capture
// and safe to restore from concurrently.
type Image struct {
	tags []byte          // structure stream: node kinds, lengths, indices
	data []byte          // POD bulk data, zero-run-length encoded
	strs []string        // string values in walk order
	maps []reflect.Value // deep-copied maps in walk order
}

// Bytes reports the image's payload size (bulk state bytes plus the
// structure stream) — the cost of keeping this snapshot cached.
func (img *Image) Bytes() int {
	n := len(img.tags) + len(img.data)
	for _, s := range img.strs {
		n += len(s)
	}
	return n
}

// Codec captures and restores object graphs. A codec is stateless apart
// from its skip set, a type-classification cache, and a scratch-buffer
// pool; one codec serves any number of concurrent Capture/Restore calls.
type Codec struct {
	skip map[reflect.Type]bool
	pods sync.Map // reflect.Type -> bool: contains no pointers
	// scratch recycles capture work buffers (*Image). Building a multi-MB
	// image by append-growth allocates and abandons several times the
	// final size per capture; with gigabytes of snapshots retained that
	// churn dominates capture cost (fresh pages are faulted and zeroed
	// every time). Capturing into a pooled scratch image and copy-
	// shrinking into an exact-size result makes the growth a one-time
	// cost per pooled buffer.
	scratch sync.Pool
}

// NewCodec builds a codec. skip lists pointer types to treat as
// external wiring: their fields are not captured and left untouched on
// restore.
func NewCodec(skip ...reflect.Type) *Codec {
	c := &Codec{skip: make(map[reflect.Type]bool, len(skip))}
	for _, t := range skip {
		c.skip[t] = true
	}
	return c
}

// Node tags. Every node in the walk emits one so Restore re-validates
// the structure it is overwriting instead of trusting offsets.
const (
	tagPOD     byte = iota + 1 // uvarint byte length, bytes in data
	tagPtrNil                  // nil pointer
	tagPtr                     // first visit: pointee encoding follows
	tagPtrSeen                 // aliased pointer, already encoded
	tagPtrSkip                 // skip-listed pointer type
	tagSlice                   // uvarint length, then element encoding
	tagString                  // uvarint index into strs
	tagMap                     // uvarint index into maps
	tagMapNil                  // nil map
	tagStruct                  // fields follow in order
	tagArray                   // non-POD elements follow in order
	tagFunc                    // func field: left untouched
	tagIface                   // non-nil interface: uvarint index of the dynamic type name in strs, then pointer encoding
)

// pod reports whether t contains no pointers, so a value of it can be
// captured as one flat byte copy.
func (c *Codec) pod(t reflect.Type) bool {
	if v, ok := c.pods.Load(t); ok {
		return v.(bool)
	}
	var is bool
	switch t.Kind() {
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Uintptr, reflect.Float32, reflect.Float64,
		reflect.Complex64, reflect.Complex128:
		is = true
	case reflect.Array:
		is = c.pod(t.Elem())
	case reflect.Struct:
		is = true
		for i := 0; i < t.NumField(); i++ {
			if !c.pod(t.Field(i).Type) {
				is = false
				break
			}
		}
	}
	c.pods.Store(t, is)
	return is
}

type sliceHeader struct {
	data unsafe.Pointer
	len  int
	cap  int
}

// POD bulk data is stored zero-run-length encoded: each chunk is a
// sequence of (uvarint zero length, uvarint literal length, literal
// bytes) records summing to the chunk's byte size. A freshly warmed
// simulator is mostly still zero — its large tables are cold past the
// warmed working set — so this typically shrinks images several-fold,
// which matters both for the resident size of a snapshot cache and for
// the pages faulted per capture. Runs shorter than zeroRunMin are
// cheaper inside a literal than as a record boundary.
const zeroRunMin = 64

// zeroBlock is the all-zero reference the zero scans compare against.
var zeroBlock [4096]byte

// zeroPrefixLen returns the length of b's zero prefix. It compares whole
// 4 KiB, then 64-byte blocks against zeroBlock — bytes.Equal runs
// vectorized, several times faster than a word-at-a-time loop over the
// long zero runs that dominate a simulator image — and finishes the
// block holding the first nonzero byte a word, then a byte, at a time.
func zeroPrefixLen(b []byte) int {
	n := 0
	for n+len(zeroBlock) <= len(b) && bytes.Equal(b[n:n+len(zeroBlock)], zeroBlock[:]) {
		n += len(zeroBlock)
	}
	for n+64 <= len(b) && bytes.Equal(b[n:n+64], zeroBlock[:64]) {
		n += 64
	}
	for n+8 <= len(b) && binary.LittleEndian.Uint64(b[n:]) == 0 {
		n += 8
	}
	for n < len(b) && b[n] == 0 {
		n++
	}
	return n
}

// encodePOD appends the zero-RLE encoding of b to data.
func encodePOD(data []byte, b []byte) []byte {
	for len(b) > 0 {
		z := zeroPrefixLen(b)
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
			n := zeroPrefixLen(rest[i:])
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

// walkState carries one Capture or Restore traversal: the aliasing set
// and the current path (for error messages only).
type walkState struct {
	seen map[unsafe.Pointer]struct{}
	path []string
}

func (w *walkState) push(s string) { w.path = append(w.path, s) }
func (w *walkState) pop()          { w.path = w.path[:len(w.path)-1] }
func (w *walkState) at() string    { return strings.Join(w.path, ".") }

// Capture snapshots the graph reachable from root, which must be a
// non-nil pointer.
func (c *Codec) Capture(root any) (*Image, error) {
	rv := reflect.ValueOf(root)
	if rv.Kind() != reflect.Ptr || rv.IsNil() {
		return nil, fmt.Errorf("snapshot: root must be a non-nil pointer, got %T", root)
	}
	s, _ := c.scratch.Get().(*Image)
	if s == nil {
		s = &Image{}
	}
	w := &walkState{seen: map[unsafe.Pointer]struct{}{rv.UnsafePointer(): {}}}
	w.push(rv.Type().Elem().String())
	err := c.capture(s, w, rv.Type().Elem(), rv.UnsafePointer())
	if err != nil {
		c.putScratch(s)
		return nil, err
	}
	// Exact-size copy for the retained image; the grown scratch buffers
	// go back to the pool.
	img := &Image{
		tags: append(make([]byte, 0, len(s.tags)), s.tags...),
		data: append(make([]byte, 0, len(s.data)), s.data...),
	}
	if len(s.strs) > 0 {
		img.strs = append(make([]string, 0, len(s.strs)), s.strs...)
	}
	if len(s.maps) > 0 {
		img.maps = append(make([]reflect.Value, 0, len(s.maps)), s.maps...)
	}
	c.putScratch(s)
	return img, nil
}

// putScratch returns a capture work buffer to the pool, dropping value
// references so the pool never keeps strings or maps alive.
func (c *Codec) putScratch(s *Image) {
	clear(s.strs)
	clear(s.maps)
	s.tags, s.data, s.strs, s.maps = s.tags[:0], s.data[:0], s.strs[:0], s.maps[:0]
	c.scratch.Put(s)
}

func (c *Codec) capture(img *Image, w *walkState, t reflect.Type, p unsafe.Pointer) error {
	if c.pod(t) {
		n := t.Size()
		img.tags = append(img.tags, tagPOD)
		img.tags = binary.AppendUvarint(img.tags, uint64(n))
		img.data = encodePOD(img.data, unsafe.Slice((*byte)(p), n))
		return nil
	}
	switch t.Kind() {
	case reflect.Ptr:
		ep := *(*unsafe.Pointer)(p)
		switch {
		case c.skip[t]:
			// Skip-listed even when nil: external wiring may be present
			// on one instance and absent on another.
			img.tags = append(img.tags, tagPtrSkip)
		case ep == nil:
			img.tags = append(img.tags, tagPtrNil)
		default:
			if _, ok := w.seen[ep]; ok {
				img.tags = append(img.tags, tagPtrSeen)
				return nil
			}
			w.seen[ep] = struct{}{}
			img.tags = append(img.tags, tagPtr)
			return c.capture(img, w, t.Elem(), ep)
		}
		return nil
	case reflect.Slice:
		sh := (*sliceHeader)(p)
		img.tags = append(img.tags, tagSlice)
		img.tags = binary.AppendUvarint(img.tags, uint64(sh.len))
		if sh.len == 0 {
			return nil
		}
		et := t.Elem()
		if c.pod(et) {
			n := uintptr(sh.len) * et.Size()
			img.tags = append(img.tags, tagPOD)
			img.tags = binary.AppendUvarint(img.tags, uint64(n))
			img.data = encodePOD(img.data, unsafe.Slice((*byte)(sh.data), n))
			return nil
		}
		for i := 0; i < sh.len; i++ {
			if err := c.capture(img, w, et, unsafe.Add(sh.data, uintptr(i)*et.Size())); err != nil {
				return err
			}
		}
		return nil
	case reflect.Struct:
		img.tags = append(img.tags, tagStruct)
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			w.push(f.Name)
			if err := c.capture(img, w, f.Type, unsafe.Add(p, f.Offset)); err != nil {
				return err
			}
			w.pop()
		}
		return nil
	case reflect.Array:
		img.tags = append(img.tags, tagArray)
		et := t.Elem()
		for i := 0; i < t.Len(); i++ {
			if err := c.capture(img, w, et, unsafe.Add(p, uintptr(i)*et.Size())); err != nil {
				return err
			}
		}
		return nil
	case reflect.String:
		img.tags = append(img.tags, tagString)
		img.tags = binary.AppendUvarint(img.tags, uint64(len(img.strs)))
		img.strs = append(img.strs, *(*string)(p))
		return nil
	case reflect.Map:
		mv := reflect.NewAt(t, p).Elem()
		if mv.IsNil() {
			img.tags = append(img.tags, tagMapNil)
			return nil
		}
		if !c.pod(t.Key()) || !c.pod(t.Elem()) {
			return fmt.Errorf("snapshot: map %v at %s has non-POD key or value", t, w.at())
		}
		cp := reflect.MakeMapWithSize(t, mv.Len())
		it := mv.MapRange()
		for it.Next() {
			cp.SetMapIndex(it.Key(), it.Value())
		}
		img.tags = append(img.tags, tagMap)
		img.tags = binary.AppendUvarint(img.tags, uint64(len(img.maps)))
		img.maps = append(img.maps, cp)
		return nil
	case reflect.Func:
		img.tags = append(img.tags, tagFunc)
		return nil
	case reflect.Interface:
		if c.skip[t] {
			img.tags = append(img.tags, tagPtrSkip)
			return nil
		}
		iv := reflect.NewAt(t, p).Elem()
		if iv.IsNil() {
			img.tags = append(img.tags, tagPtrNil)
			return nil
		}
		// A non-nil interface is captured as (dynamic type name, pointee):
		// restore re-checks the target holds the same dynamic type and
		// overwrites the pointee in place, so a pluggable component (a
		// DirectionPredictor engine behind an interface field) snapshots
		// like any other pointer — aliasing included. Only pointer-shaped
		// dynamic values are supported; value-shaped ones would copy on
		// every interface read and cannot be restored in place.
		dv := iv.Elem()
		if dv.Kind() != reflect.Ptr {
			return fmt.Errorf("snapshot: interface %v at %s holds non-pointer %v", t, w.at(), dv.Type())
		}
		if dv.IsNil() {
			return fmt.Errorf("snapshot: interface %v at %s holds a nil %v", t, w.at(), dv.Type())
		}
		img.tags = append(img.tags, tagIface)
		img.tags = binary.AppendUvarint(img.tags, uint64(len(img.strs)))
		img.strs = append(img.strs, dv.Type().String())
		ep := dv.UnsafePointer()
		if _, ok := w.seen[ep]; ok {
			img.tags = append(img.tags, tagPtrSeen)
			return nil
		}
		w.seen[ep] = struct{}{}
		img.tags = append(img.tags, tagPtr)
		w.push("(" + dv.Type().String() + ")")
		defer w.pop()
		return c.capture(img, w, dv.Type().Elem(), ep)
	default:
		return fmt.Errorf("snapshot: unsupported kind %v (%v) at %s", t.Kind(), t, w.at())
	}
}

// restorer cursors through an Image while overwriting a target graph.
type restorer struct {
	c   *Codec
	img *Image
	tp  int // tags position
	dp  int // data position
	walkState
}

func (r *restorer) tag() (byte, error) {
	if r.tp >= len(r.img.tags) {
		return 0, fmt.Errorf("snapshot: image truncated at %s", r.at())
	}
	b := r.img.tags[r.tp]
	r.tp++
	return b, nil
}

func (r *restorer) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.img.tags[r.tp:])
	if n <= 0 {
		return 0, fmt.Errorf("snapshot: corrupt length at %s", r.at())
	}
	r.tp += n
	return v, nil
}

// Restore overwrites root's reachable graph with the image's state.
// root must have the shape the image was captured from; on a structure
// mismatch the target may be partially overwritten and should be
// discarded (or Reset) rather than used.
func (c *Codec) Restore(img *Image, root any) error {
	rv := reflect.ValueOf(root)
	if rv.Kind() != reflect.Ptr || rv.IsNil() {
		return fmt.Errorf("snapshot: root must be a non-nil pointer, got %T", root)
	}
	r := &restorer{c: c, img: img,
		walkState: walkState{seen: map[unsafe.Pointer]struct{}{rv.UnsafePointer(): {}}}}
	r.push(rv.Type().Elem().String())
	if err := r.restore(rv.Type().Elem(), rv.UnsafePointer()); err != nil {
		return err
	}
	if r.tp != len(img.tags) || r.dp != len(img.data) {
		return fmt.Errorf("snapshot: image not fully consumed (%d/%d tags, %d/%d bytes): shape mismatch",
			r.tp, len(img.tags), r.dp, len(img.data))
	}
	return nil
}

// bulk overwrites the n bytes at p from the next POD chunk's zero-RLE
// records: zero runs are cleared in place, literals copied.
func (r *restorer) bulk(p unsafe.Pointer, n uintptr) error {
	tg, err := r.tag()
	if err != nil {
		return err
	}
	if tg != tagPOD {
		return fmt.Errorf("snapshot: expected POD chunk at %s, image has tag %d", r.at(), tg)
	}
	ln, err := r.uvarint()
	if err != nil {
		return err
	}
	if ln != uint64(n) {
		return fmt.Errorf("snapshot: POD chunk at %s is %d bytes, target needs %d", r.at(), ln, n)
	}
	dst := unsafe.Slice((*byte)(p), n)
	for off := 0; off < int(n); {
		z, err := r.dataUvarint()
		if err != nil {
			return err
		}
		lit, err := r.dataUvarint()
		if err != nil {
			return err
		}
		if off+int(z)+int(lit) > int(n) || r.dp+int(lit) > len(r.img.data) {
			return fmt.Errorf("snapshot: POD chunk overruns its size at %s", r.at())
		}
		clearDirty(dst[off : off+int(z)])
		off += int(z)
		copy(dst[off:off+int(lit)], r.img.data[r.dp:r.dp+int(lit)])
		r.dp += int(lit)
		off += int(lit)
	}
	return nil
}

// clearDirty zeroes b, storing only where it is not zero already: it
// skips each zero span with zeroPrefixLen and clears the 256 bytes from
// the first nonzero byte on. A restore's zero runs cover state that was
// untouched at capture time — state the run since then mostly left
// untouched too — so checking with reads before storing avoids dirtying
// (and later writing back) the clean majority of a multi-megabyte image.
func clearDirty(b []byte) {
	const blk = 256
	for {
		b = b[zeroPrefixLen(b):]
		if len(b) == 0 {
			return
		}
		n := min(blk, len(b))
		clear(b[:n])
		b = b[n:]
	}
}

// dataUvarint reads one record length from the data stream.
func (r *restorer) dataUvarint() (uint64, error) {
	v, n := binary.Uvarint(r.img.data[r.dp:])
	if n <= 0 {
		return 0, fmt.Errorf("snapshot: corrupt POD record at %s", r.at())
	}
	r.dp += n
	return v, nil
}

func (r *restorer) restore(t reflect.Type, p unsafe.Pointer) error {
	if r.c.pod(t) {
		return r.bulk(p, t.Size())
	}
	mismatch := func(tg byte) error {
		return fmt.Errorf("snapshot: shape mismatch at %s (%v vs image tag %d)", r.at(), t, tg)
	}
	switch t.Kind() {
	case reflect.Ptr:
		tg, err := r.tag()
		if err != nil {
			return err
		}
		ep := *(*unsafe.Pointer)(p)
		switch tg {
		case tagPtrNil:
			if ep != nil {
				return fmt.Errorf("snapshot: target %v at %s is non-nil, image captured nil", t, r.at())
			}
			return nil
		case tagPtrSkip:
			if !r.c.skip[t] {
				return mismatch(tg)
			}
			return nil
		case tagPtrSeen:
			if ep == nil {
				return fmt.Errorf("snapshot: target %v at %s is nil, image captured an alias", t, r.at())
			}
			if _, ok := r.seen[ep]; !ok {
				return fmt.Errorf("snapshot: aliasing mismatch at %s: image expects an already-restored pointer", r.at())
			}
			return nil
		case tagPtr:
			if ep == nil {
				return fmt.Errorf("snapshot: target %v at %s is nil, image captured state", t, r.at())
			}
			r.seen[ep] = struct{}{}
			return r.restore(t.Elem(), ep)
		default:
			return mismatch(tg)
		}
	case reflect.Slice:
		tg, err := r.tag()
		if err != nil {
			return err
		}
		if tg != tagSlice {
			return mismatch(tg)
		}
		ln, err := r.uvarint()
		if err != nil {
			return err
		}
		// State slices change length as the simulation runs (append-grown
		// request buffers): rebind the target's length to the captured
		// one, reusing the backing array when capacity allows and
		// reallocating through reflect (write-barrier safe) when not.
		sh := (*sliceHeader)(p)
		n := int(ln)
		if n > sh.cap {
			sv := reflect.NewAt(t, p).Elem()
			sv.Set(reflect.MakeSlice(t, n, n))
		} else if n != sh.len {
			sh.len = n
		}
		if n == 0 {
			return nil
		}
		et := t.Elem()
		if r.c.pod(et) {
			return r.bulk(sh.data, uintptr(n)*et.Size())
		}
		for i := 0; i < n; i++ {
			if err := r.restore(et, unsafe.Add(sh.data, uintptr(i)*et.Size())); err != nil {
				return err
			}
		}
		return nil
	case reflect.Struct:
		tg, err := r.tag()
		if err != nil {
			return err
		}
		if tg != tagStruct {
			return mismatch(tg)
		}
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			r.push(f.Name)
			if err := r.restore(f.Type, unsafe.Add(p, f.Offset)); err != nil {
				return err
			}
			r.pop()
		}
		return nil
	case reflect.Array:
		tg, err := r.tag()
		if err != nil {
			return err
		}
		if tg != tagArray {
			return mismatch(tg)
		}
		et := t.Elem()
		for i := 0; i < t.Len(); i++ {
			if err := r.restore(et, unsafe.Add(p, uintptr(i)*et.Size())); err != nil {
				return err
			}
		}
		return nil
	case reflect.String:
		tg, err := r.tag()
		if err != nil {
			return err
		}
		if tg != tagString {
			return mismatch(tg)
		}
		idx, err := r.uvarint()
		if err != nil {
			return err
		}
		if idx >= uint64(len(r.img.strs)) {
			return fmt.Errorf("snapshot: string index out of range at %s", r.at())
		}
		// Through reflect, not a raw pointer write: the string header
		// carries a pointer and the GC write barrier must see it.
		reflect.NewAt(t, p).Elem().SetString(r.img.strs[idx])
		return nil
	case reflect.Map:
		tg, err := r.tag()
		if err != nil {
			return err
		}
		mv := reflect.NewAt(t, p).Elem()
		switch tg {
		case tagMapNil:
			if !mv.IsNil() {
				return fmt.Errorf("snapshot: target map at %s is non-nil, image captured nil", r.at())
			}
			return nil
		case tagMap:
			if mv.IsNil() {
				return fmt.Errorf("snapshot: target map at %s is nil, image captured entries", r.at())
			}
			idx, err := r.uvarint()
			if err != nil {
				return err
			}
			if idx >= uint64(len(r.img.maps)) {
				return fmt.Errorf("snapshot: map index out of range at %s", r.at())
			}
			mv.Clear()
			it := r.img.maps[idx].MapRange()
			for it.Next() {
				mv.SetMapIndex(it.Key(), it.Value())
			}
			return nil
		default:
			return mismatch(tg)
		}
	case reflect.Func:
		tg, err := r.tag()
		if err != nil {
			return err
		}
		if tg != tagFunc {
			return mismatch(tg)
		}
		return nil
	case reflect.Interface:
		tg, err := r.tag()
		if err != nil {
			return err
		}
		switch tg {
		case tagPtrSkip:
			if !r.c.skip[t] {
				return mismatch(tg)
			}
			return nil
		case tagPtrNil:
			if !reflect.NewAt(t, p).Elem().IsNil() {
				return fmt.Errorf("snapshot: target interface at %s is non-nil, image captured nil", r.at())
			}
			return nil
		case tagIface:
			idx, err := r.uvarint()
			if err != nil {
				return err
			}
			if idx >= uint64(len(r.img.strs)) {
				return fmt.Errorf("snapshot: interface type index out of range at %s", r.at())
			}
			iv := reflect.NewAt(t, p).Elem()
			if iv.IsNil() {
				return fmt.Errorf("snapshot: target interface at %s is nil, image captured %s", r.at(), r.img.strs[idx])
			}
			dv := iv.Elem()
			if dv.Kind() != reflect.Ptr || dv.IsNil() {
				return fmt.Errorf("snapshot: target interface at %s does not hold a non-nil pointer", r.at())
			}
			if got := dv.Type().String(); got != r.img.strs[idx] {
				return fmt.Errorf("snapshot: interface at %s holds %s, image captured %s", r.at(), got, r.img.strs[idx])
			}
			inner, err := r.tag()
			if err != nil {
				return err
			}
			ep := dv.UnsafePointer()
			switch inner {
			case tagPtrSeen:
				if _, ok := r.seen[ep]; !ok {
					return fmt.Errorf("snapshot: aliasing mismatch at %s: image expects an already-restored pointer", r.at())
				}
				return nil
			case tagPtr:
				r.seen[ep] = struct{}{}
				r.push("(" + dv.Type().String() + ")")
				defer r.pop()
				return r.restore(dv.Type().Elem(), ep)
			default:
				return mismatch(inner)
			}
		default:
			return mismatch(tg)
		}
	default:
		return fmt.Errorf("snapshot: unsupported kind %v (%v) at %s", t.Kind(), t, r.at())
	}
}
