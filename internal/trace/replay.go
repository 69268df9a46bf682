package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
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

// WriteTo serializes the trace: a magic header, a count, then 9 bytes per
// reference (segment, page, write flag), little-endian.
func (r *Recorder) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	n := int64(0)
	if _, err := bw.Write(traceMagic[:]); err != nil {
		return n, err
	}
	n += 4
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(len(r.Refs)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return n, err
	}
	n += 8
	var rec [9]byte
	for _, ref := range r.Refs {
		binary.LittleEndian.PutUint32(rec[0:], uint32(ref.Seg))
		binary.LittleEndian.PutUint32(rec[4:], uint32(ref.Page))
		rec[8] = 0
		if ref.Write {
			rec[8] = 1
		}
		if _, err := bw.Write(rec[:]); err != nil {
			return n, err
		}
		n += 9
	}
	return n, bw.Flush()
}

// ReadTrace deserializes a trace written by WriteTo.
func ReadTrace(r io.Reader) ([]PageRef, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("trace: short header: %w", err)
	}
	if magic != traceMagic {
		return nil, fmt.Errorf("trace: bad magic %q", magic)
	}
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: short count: %w", err)
	}
	count := binary.LittleEndian.Uint64(hdr[:])
	const maxTrace = 1 << 28 // sanity bound: ~268M references
	if count > maxTrace {
		return nil, fmt.Errorf("trace: implausible reference count %d", count)
	}
	refs := make([]PageRef, 0, count)
	var rec [9]byte
	for i := uint64(0); i < count; i++ {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return nil, fmt.Errorf("trace: truncated at reference %d: %w", i, err)
		}
		refs = append(refs, PageRef{
			Seg:   int32(binary.LittleEndian.Uint32(rec[0:])),
			Page:  int32(binary.LittleEndian.Uint32(rec[4:])),
			Write: rec[8] != 0,
		})
	}
	return refs, nil
}
