package obs

import (
	"encoding/binary"
	"iter"
	"math/bits"
	"time"

	"compcache/internal/sim"
)

// eventLog is a bus's retained window, packed: each event is one
// variable-length record, and records sit oldest first in fixed-size byte
// chunks. A record is
//
//	head   one byte: bits 0-4 say which of Seg, Page, Bytes, Dur and Aux
//	       are nonzero; bits 5-7 hold Sub, or 7 with the Sub byte following
//	class  one byte: the bit index of a one-bit class, or classEscape with
//	       the class following as a uvarint
//	T      zigzag varint of T minus the previous record's T in the chunk
//	       (wrapping; a chunk's first record counts from 0)
//	fields zigzag varint of each nonzero field, in the order above
//
// A fault event takes about 9 bytes against Event's 48. The window is
// bounded in events, as the ring it replaced was: the bus drops the oldest
// record before pushing onto a full log. Dropping only counts: the head
// chunk's dropped records stay until all of its records are dropped, and
// then the emptied chunk is kept to be the next tail. A chunk is taken only
// when the tail cannot hold a maximum-length record, so memory follows the
// events a run emits.
type eventLog struct {
	chunks []logChunk // oldest first; the last is the tail
	skip   int        // dropped records at the front of chunks[0]
	spare  []byte     // an emptied chunk, reused before a new one is made
	n      int        // retained records
	max    int        // retention bound in records (Options.RingSize)
	lastT  sim.Time   // T of the newest record
}

// logChunk is one chunk's records and their count.
type logChunk struct {
	buf []byte
	n   int
}

const (
	chunkBytes  = 64 << 10 // capacity of a chunk
	subEscape   = 7        // head's Sub bits when a Sub byte follows
	classEscape = 0xff     // class byte when the class follows as a uvarint
	// maxRecord bounds one record: head, Sub and class bytes, the class
	// uvarint, T, Seg and Page, then Bytes, Dur and Aux.
	maxRecord = 3 + binary.MaxVarintLen32 + binary.MaxVarintLen64 +
		2*binary.MaxVarintLen32 + 3*binary.MaxVarintLen64
)

// push appends e as the newest record; the caller drops first when the log
// is full.
func (l *eventLog) push(e *Event) {
	k := len(l.chunks) - 1
	if k < 0 || cap(l.chunks[k].buf)-len(l.chunks[k].buf) < maxRecord {
		buf := l.spare
		if buf == nil {
			buf = make([]byte, 0, chunkBytes)
		}
		l.spare = nil
		l.chunks = append(l.chunks, logChunk{buf: buf})
		k++
	}
	c := &l.chunks[k]
	prevT := l.lastT
	if c.n == 0 {
		prevT = 0
	}
	c.buf = c.buf[:len(c.buf)+encodeRecord(c.buf[len(c.buf):cap(c.buf)], e, prevT)]
	c.n++
	l.lastT = e.T
	l.n++
}

// drop discards the oldest record. A head chunk it empties is reused: as the
// spare when later chunks hold records, or in place when it is the only one.
func (l *eventLog) drop() {
	l.n--
	if l.skip++; l.skip < l.chunks[0].n {
		return
	}
	l.skip = 0
	empty := l.chunks[0].buf[:0]
	if len(l.chunks) == 1 {
		l.chunks[0] = logChunk{buf: empty}
		return
	}
	l.spare = empty
	copy(l.chunks, l.chunks[1:])
	l.chunks[len(l.chunks)-1] = logChunk{}
	l.chunks = l.chunks[:len(l.chunks)-1]
}

// all yields the retained events, oldest first.
func (l *eventLog) all() iter.Seq[Event] {
	return func(yield func(Event) bool) {
		skip := l.skip
		for _, c := range l.chunks {
			var e Event
			for i, j := 0, 0; j < c.n; j++ {
				i += decodeRecord(c.buf[i:], e.T, &e)
				if j >= skip && !yield(e) {
					return
				}
			}
			skip = 0
		}
	}
}

// The presence bits of a record's head byte.
const (
	hasSeg = 1 << iota
	hasPage
	hasBytes
	hasDur
	hasAux
)

// encodeRecord writes e's record into dst, which holds at least maxRecord
// bytes, with T as a delta from prevT, and returns the record's length.
func encodeRecord(dst []byte, e *Event, prevT sim.Time) int {
	var head byte
	if e.Seg != 0 {
		head |= hasSeg
	}
	if e.Page != 0 {
		head |= hasPage
	}
	if e.Bytes != 0 {
		head |= hasBytes
	}
	if e.Dur != 0 {
		head |= hasDur
	}
	if e.Aux != 0 {
		head |= hasAux
	}
	n := 1
	if e.Sub < subEscape {
		head |= byte(e.Sub) << 5
	} else {
		head |= subEscape << 5
		dst[n] = byte(e.Sub)
		n++
	}
	dst[0] = head
	if e.Class != 0 && e.Class&(e.Class-1) == 0 {
		dst[n] = byte(bits.TrailingZeros32(uint32(e.Class)))
		n++
	} else {
		dst[n] = classEscape
		n++
		n += binary.PutUvarint(dst[n:], uint64(e.Class))
	}
	n += binary.PutUvarint(dst[n:], zigzag(int64(e.T-prevT)))
	if head&hasSeg != 0 {
		n += binary.PutUvarint(dst[n:], zigzag(int64(e.Seg)))
	}
	if head&hasPage != 0 {
		n += binary.PutUvarint(dst[n:], zigzag(int64(e.Page)))
	}
	if head&hasBytes != 0 {
		n += binary.PutUvarint(dst[n:], zigzag(e.Bytes))
	}
	if head&hasDur != 0 {
		n += binary.PutUvarint(dst[n:], zigzag(int64(e.Dur)))
	}
	if head&hasAux != 0 {
		n += binary.PutUvarint(dst[n:], zigzag(e.Aux))
	}
	return n
}

// decodeRecord reads the record at the start of src into e, adding its T
// delta to prevT, and returns the record's length.
func decodeRecord(src []byte, prevT sim.Time, e *Event) int {
	head := src[0]
	n := 1
	e.Sub = Subsystem(head >> 5)
	if e.Sub == subEscape {
		e.Sub = Subsystem(src[n])
		n++
	}
	if c := src[n]; c != classEscape {
		e.Class = 1 << c
		n++
	} else {
		v, k := binary.Uvarint(src[n+1:])
		e.Class = Class(v)
		n += 1 + k
	}
	var v [6]int64 // T's delta, then the fields in head's bit order
	for i := range v {
		if i == 0 || head&(1<<(i-1)) != 0 {
			u, k := binary.Uvarint(src[n:])
			v[i] = unzigzag(u)
			n += k
		}
	}
	e.T = prevT + sim.Time(v[0])
	e.Seg, e.Page, e.Bytes, e.Dur, e.Aux = int32(v[1]), int32(v[2]), v[3], time.Duration(v[4]), v[5]
	return n
}

func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
