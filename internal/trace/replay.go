package trace

import (
	"fmt"
	"io"
	"math"

	"compcache/internal/snap"
)

// PageRef is one page-granularity VM reference, the unit the machine's
// tracing hook reports. (Ref, in this package's generators, is
// word-granularity input for the cache-simulator workload; PageRef is
// output from the paging simulator.)
type PageRef struct {
	Seg   int32
	Page  int32
	Write bool
}

// Recorder accumulates page references; plug its Note method into the VM's
// trace hook. The zero Recorder is ready to use.
type Recorder struct {
	Refs []PageRef
}

// Note records one reference (the vm trace-hook signature).
func (r *Recorder) Note(seg, page int32, write bool) {
	r.Refs = append(r.Refs, PageRef{Seg: seg, Page: page, Write: write})
}

// Segment is one segment a trace references, sized by the highest page of
// it the trace references.
type Segment struct {
	ID    int32
	Pages int64
}

// Segments lists the segments refs references, in the order each is first
// referenced. A negative segment or page id is an error: no machine makes
// one.
func Segments(refs []PageRef) ([]Segment, error) {
	var segs []Segment
	index := map[int32]int{}
	for i, r := range refs {
		if r.Seg < 0 || r.Page < 0 {
			return nil, fmt.Errorf("trace: reference %d names segment %d page %d; ids are never negative", i, r.Seg, r.Page)
		}
		j, ok := index[r.Seg]
		if !ok {
			j = len(segs)
			index[r.Seg] = j
			segs = append(segs, Segment{ID: r.Seg})
		}
		segs[j].Pages = max(segs[j].Pages, int64(r.Page)+1)
	}
	return segs, nil
}

// traceMagic identifies the on-disk format.
var traceMagic = [4]byte{'c', 'c', 't', '1'}

// walk visits a trace file: the magic, then the references as a counted
// sequence of (segment, page, write flag), little-endian.
func (r *Recorder) walk(c *snap.Codec) {
	magic := traceMagic
	for i := range magic {
		snap.Byte(c, &magic[i])
	}
	if magic != traceMagic {
		c.Failf("bad magic %q", magic)
	}
	snap.Slice(c, &r.Refs, math.MaxInt, "references", func(ref *PageRef) {
		c.I32(&ref.Seg)
		c.I32(&ref.Page)
		c.Bool(&ref.Write)
	})
}

// WriteTo serializes the trace.
func (r *Recorder) WriteTo(w io.Writer) (int64, error) {
	enc := snap.Encoder(new(snap.Writer))
	r.walk(enc) // cannot fail: only decoding checks anything
	n, err := w.Write(enc.Raw())
	return int64(n), err
}

// ReadTrace deserializes a trace written by WriteTo. The count a trace
// claims is held to the bytes it has, so a forged count allocates nothing.
func ReadTrace(r io.Reader) ([]PageRef, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	dec := snap.Decoder(new(snap.Reader))
	dec.Reset(data)
	var rec Recorder
	if rec.walk(dec); dec.Err() != nil {
		return nil, fmt.Errorf("trace: %w", dec.Err())
	}
	return rec.Refs, nil
}
