package snap

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
)

// Codec walks state in one direction fixed at construction: an Encoder
// appends every visited field to a Writer, a Decoder overwrites every
// visited field from a Reader. Visitors take a pointer, so a subsystem
// spells each field once and the two directions cannot drift apart.
//
// Errors are sticky and shared with the underlying stream: after the first
// failure visitors decode zeros, Len returns 0 and Check is skipped, so a
// walk needs no per-field error handling — only loops over a decoded count
// test Err.
type Codec struct {
	w    *Writer
	r    *Reader
	seen []uintptr // visited addresses; recorded only under Uncovered
}

// Encoder returns a codec that writes visited state to w.
func Encoder(w *Writer) *Codec { return &Codec{w: w} }

// Decoder returns a codec that overwrites visited state from r.
func Decoder(r *Reader) *Codec { return &Codec{r: r} }

// Decoding reports the walk's direction.
func (c *Codec) Decoding() bool { return c.r != nil }

// Reset points c at an unframed stream — no magic, version or checksum, for
// a record inside another format — over b: an encoder appends to b, a
// decoder reads b from its start. A codec over a zero Writer or Reader is
// one over nil; Reset per record, it walks any number without allocating.
func (c *Codec) Reset(b []byte) {
	if c.r != nil {
		*c.r = Reader{buf: b}
	} else {
		*c.w = Writer{buf: b}
	}
}

// Raw returns an encoder's unframed stream: b and every field visited since.
func (c *Codec) Raw() []byte { return c.w.buf }

// Err reports the stream's sticky error.
func (c *Codec) Err() error {
	if c.r != nil {
		return c.r.err
	}
	return c.w.err
}

// Failf fails the walk — a snapshot that breaks a bound or names something
// the rebuilt machine lacks, or state that cannot be captured. The first
// failure wins.
func (c *Codec) Failf(format string, args ...any) {
	if c.Err() != nil {
		return
	}
	if err := fmt.Errorf(format, args...); c.r != nil {
		c.r.err = err
	} else {
		c.w.err = err
	}
}

// Check runs a consistency check over freshly decoded state; it is skipped
// when encoding and after a failure, so f may assume every count and index
// the walk validated.
func (c *Codec) Check(f func() error) {
	if c.r == nil || c.r.err != nil {
		return
	}
	c.r.err = f()
}

// Mark records state fields the walk carries by hand — a list written as a
// key sequence, a map written sorted — so Uncovered counts them as visited.
func (c *Codec) Mark(ptrs ...any) {
	for _, p := range ptrs {
		c.mark(p)
	}
}

func (c *Codec) mark(p any) {
	if c.seen != nil {
		c.seen = append(c.seen, reflect.ValueOf(p).Pointer())
	}
}

// Section visits a section marker: written when encoding, verified when
// decoding.
func (c *Codec) Section(name string) {
	if c.r != nil {
		c.r.Section(name)
	} else {
		c.w.Section(name)
	}
}

// Bool visits a boolean.
func (c *Codec) Bool(p *bool) {
	c.mark(p)
	if c.r != nil {
		*p = c.r.Bool()
	} else {
		c.w.Bool(*p)
	}
}

// Byte visits a value of any 8-bit type (owner, page-state and subsystem
// tags).
func Byte[T ~int8 | ~uint8](c *Codec, p *T) {
	c.mark(p)
	if c.r != nil {
		*p = T(c.r.U8())
	} else {
		c.w.U8(uint8(*p))
	}
}

// Uint32 visits a value of any 32-bit unsigned type.
func Uint32[T ~uint32](c *Codec, p *T) {
	c.mark(p)
	if c.r != nil {
		*p = T(c.r.U32())
	} else {
		c.w.U32(uint32(*p))
	}
}

// Int32 visits a value of any 32-bit signed type (frame and actor ids).
func Int32[T ~int32](c *Codec, p *T) {
	c.mark(p)
	if c.r != nil {
		*p = T(c.r.I32())
	} else {
		c.w.I32(int32(*p))
	}
}

// Int64 visits a value of any 64-bit signed type (sim.Time, time.Duration).
func Int64[T ~int64](c *Codec, p *T) {
	c.mark(p)
	if c.r != nil {
		*p = T(c.r.I64())
	} else {
		c.w.I64(int64(*p))
	}
}

// U16 visits a uint16.
func (c *Codec) U16(p *uint16) {
	c.mark(p)
	if c.r != nil {
		*p = c.r.U16()
	} else {
		c.w.U16(*p)
	}
}

// U32 visits a uint32.
func (c *Codec) U32(p *uint32) { Uint32(c, p) }

// I32 visits an int32.
func (c *Codec) I32(p *int32) { Int32(c, p) }

// I64 visits an int64.
func (c *Codec) I64(p *int64) { Int64(c, p) }

// U64 visits a uint64.
func (c *Codec) U64(p *uint64) {
	c.mark(p)
	if c.r != nil {
		*p = c.r.U64()
	} else {
		c.w.U64(*p)
	}
}

// Int visits an int as 64 bits.
func (c *Codec) Int(p *int) {
	c.mark(p)
	if c.r != nil {
		*p = c.r.Int()
	} else {
		c.w.Int(*p)
	}
}

// String visits a length-prefixed string.
func (c *Codec) String(p *string) {
	c.mark(p)
	if c.r != nil {
		*p = c.r.String()
	} else {
		c.w.String(*p)
	}
}

// Bytes visits a length-prefixed byte slice; decoding installs a copy.
func (c *Codec) Bytes(p *[]byte) {
	c.mark(p)
	if c.r != nil {
		*p = c.r.Bytes32()
	} else {
		c.w.Bytes32(*p)
	}
}

// Fixed visits a byte slice whose length the configuration fixes: decoding
// fills *p in place and fails unless the snapshot holds exactly len(*p)
// bytes.
func (c *Codec) Fixed(p *[]byte, what string) {
	c.mark(p)
	if c.r == nil {
		c.w.Bytes32(*p)
		return
	}
	if n := int(c.r.U32()); c.r.err == nil && n != len(*p) {
		c.Failf("snap: %s is %d bytes, want %d", what, n, len(*p))
	}
	copy(*p, c.r.take(len(*p)))
}

// Chunked visits a byte array of size bytes, a length the configuration
// fixes, held as the chunks *p of chunk bytes each (the last may be shorter),
// a nil one standing for zeros. It writes what Fixed writes for the whole
// array. Decoding fills each chunk in place, gives a nil chunk storage only
// when its bytes in the snapshot are not all zero, and fails unless the
// snapshot holds exactly size bytes.
func (c *Codec) Chunked(p *[][]byte, chunk, size int, what string) {
	c.mark(p)
	if c.r == nil {
		c.w.U32(uint32(size))
		for i, b := range *p {
			if b != nil {
				c.w.buf = append(c.w.buf, b...)
				continue
			}
			for n := min(chunk, size-i*chunk); n > 0; n -= len(zeros) {
				c.w.buf = append(c.w.buf, zeros[:min(n, len(zeros))]...)
			}
		}
		return
	}
	if n := int(c.r.U32()); c.r.err == nil && n != size {
		c.Failf("snap: %s is %d bytes, want %d", what, n, size)
	}
	for i, dst := range *p {
		b := c.r.take(min(chunk, size-i*chunk))
		switch {
		case b == nil:
			return
		case dst == nil && allZero(b):
		case dst == nil:
			(*p)[i] = make([]byte, len(b))
			copy((*p)[i], b)
		default:
			copy(dst, b)
		}
	}
}

// zeros is what a nil chunk holds, a block at a time.
var zeros [4096]byte

func allZero(b []byte) bool {
	for len(b) > 0 {
		n := min(len(b), len(zeros))
		if !bytes.Equal(b[:n], zeros[:n]) {
			return false
		}
		b = b[n:]
	}
	return true
}

// Const visits a fact the configuration fixes — geometry, which optional
// subsystems exist. It is written so that decoding can refuse a snapshot
// taken under a different configuration; visit is the visitor for its type
// (c.Int, c.Bool, ...).
func Const[T comparable](c *Codec, visit func(*T), v T, what string) {
	got := v
	visit(&got)
	if got != v {
		c.Failf("%s: snapshot has %v, this machine %v", what, got, v)
	}
}

// Len visits the element count of a sequence the caller walks next: n when
// encoding, the stored and Bound-checked count when decoding.
func (c *Codec) Len(n, max int, what string) int {
	c.Int(&n)
	return c.Bound(n, max, what)
}

// Bound checks an element count some visitor just decoded. It fails the walk
// when n is negative, exceeds max, or exceeds the bytes left in the stream —
// every element occupies at least one byte, so no forged count makes a
// restore allocate more than the snapshot's own size — and returns the count
// to loop over: n, or 0 once the walk has failed.
func (c *Codec) Bound(n, max int, what string) int {
	if c.r == nil {
		return n
	}
	if left := len(c.r.buf) - c.r.off; c.r.err == nil && (n < 0 || n > max || n > left) {
		c.Failf("snap: %d %s (limit %d, %d bytes left)", n, what, max, left)
	}
	if c.r.err != nil {
		return 0
	}
	return n
}

// Slice visits a slice field: its bounded length, then each element in
// order. Decoding replaces *s with a fresh slice.
func Slice[T any](c *Codec, s *[]T, max int, what string, elem func(*T)) {
	c.mark(s)
	n := c.Len(len(*s), max, what)
	if c.r != nil {
		*s = make([]T, n)
	}
	for i := 0; i < n && c.Err() == nil; i++ {
		elem(&(*s)[i])
	}
}

// Map visits a map field in ascending key order (less orders the keys, which
// keeps the bytes a pure function of the state): its bounded size, then each
// pair through kv. Decoding replaces *m and fails on a repeated key.
func Map[K comparable, V any](c *Codec, m *map[K]V, max int, what string, less func(a, b K) bool, kv func(*K, *V)) {
	c.mark(m)
	old := *m
	if c.r != nil {
		*m = make(map[K]V)
	}
	Keyed(c, len(old), max, what, func(visit func(K, V)) {
		keys := make([]K, 0, len(old))
		for k := range old {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return less(keys[i], keys[j]) })
		for _, k := range keys {
			visit(k, old[k])
		}
	}, kv, func(k K, v V) bool {
		_, dup := (*m)[k]
		(*m)[k] = v
		return !dup
	})
}

// Keyed visits a keyed collection that is not a Go map — a dense table, a
// slice indexed by id — in the stream Map writes: the bounded size n, then
// each pair through kv. each must hand visit every pair in ascending key
// order, or the bytes stop being a pure function of the state; put installs a
// decoded pair into the (emptied) collection and reports false for a key it
// already holds, which fails the walk. The caller Marks the field.
func Keyed[K, V any](c *Codec, n, max int, what string, each func(visit func(K, V)), kv func(*K, *V), put func(K, V) bool) {
	n = c.Len(n, max, what)
	if c.r == nil {
		each(func(k K, v V) { kv(&k, &v) })
		return
	}
	for i := 0; i < n && c.Err() == nil; i++ {
		var k K
		var v V
		if kv(&k, &v); c.Err() == nil && !put(k, v) {
			c.Failf("snap: %s: key %v repeats", what, k)
		}
	}
}

// Sparse visits a slice indexed by a small id, some of whose elements are
// absent (present says which are not), in the stream Map writes for a map
// from id to element. max bounds the ids as well as the count, so a forged id
// cannot size the decoded slice.
func Sparse[I ~int32 | ~int64, V any](c *Codec, s *[]V, max int, what string, present func(V) bool, kv func(id *I, v *V)) {
	c.mark(s)
	old, n := *s, 0
	for _, v := range old {
		if present(v) {
			n++
		}
	}
	if c.r != nil {
		*s = nil
	}
	Keyed(c, n, max, what, func(visit func(I, V)) {
		for id, v := range old {
			if present(v) {
				visit(I(id), v)
			}
		}
	}, kv, func(id I, v V) bool {
		if id < 0 || int64(id) >= int64(max) {
			c.Failf("snap: %s: id %d outside [0,%d)", what, id, max)
			return true
		}
		for int(id) >= len(*s) {
			var absent V
			*s = append(*s, absent)
		}
		if present((*s)[id]) {
			return false
		}
		(*s)[id] = v
		return true
	})
}

// Counters visits a flat counter block — a pointer to a struct of 64-bit
// integer fields, the shape of every stats.* block — field by field in
// declaration order, so a counter added to the block is carried without
// touching any walk.
func (c *Codec) Counters(p any) {
	c.mark(p)
	v := reflect.ValueOf(p).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Uint64:
			n := f.Uint()
			c.U64(&n)
			f.SetUint(n)
		case reflect.Int64:
			n := f.Int()
			c.I64(&n)
			f.SetInt(n)
		default:
			// Invariant: callers pass their own stats blocks, whose field
			// types the program text fixes, never a value decoded from
			// input; a non-64-bit field fails the first snapshot any test
			// takes of that block.
			panic(fmt.Sprintf("snap: Counters: %s.%s is not a 64-bit integer", v.Type(), v.Type().Field(i).Name))
		}
	}
}

// RoundTrip encodes state with one walk and decodes the bytes with another —
// a snapshot taken and restored in one step — and reports the first failure
// of either side.
func RoundTrip(encode, decode func(*Codec)) error {
	w := NewWriter()
	encode(Encoder(w))
	img, err := w.Bytes()
	if err != nil {
		return err
	}
	r, err := NewReader(img)
	if err != nil {
		return err
	}
	decode(Decoder(r))
	return r.Close()
}

// Uncovered runs walk under an address-recording encoder and names every
// field of the struct state points to that the walk never visited (nor
// Marked). A package's coverage test calls it on each xxxState struct: those
// hold replay state only, so any field named is a field a snapshot would
// silently lose.
func Uncovered(state any, walk func(*Codec)) []string {
	c := &Codec{w: NewWriter(), seen: []uintptr{}}
	walk(c)
	sort.Slice(c.seen, func(i, j int) bool { return c.seen[i] < c.seen[j] })
	v := reflect.ValueOf(state).Elem()
	var missing []string
	for i := 0; i < v.NumField(); i++ {
		lo := v.Field(i).UnsafeAddr()
		k := sort.Search(len(c.seen), func(k int) bool { return c.seen[k] >= lo })
		if k == len(c.seen) || c.seen[k] >= lo+v.Type().Field(i).Type.Size() {
			missing = append(missing, v.Type().Field(i).Name)
		}
	}
	return missing
}
