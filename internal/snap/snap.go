// Package snap is the versioned binary encoding machine snapshots use, and
// the one state walk each subsystem describes its snapshot with — and every
// other binary format the repo reads or writes.
//
// The stream (Writer, Reader) is fixed-width little-endian with a
// magic/version header and a CRC-32 trailer, or unframed (Codec.Reset) for a
// record inside another format. Both ends carry sticky errors, so callers
// chain field writes and reads without per-call checks and inspect the error
// once at the end. The format is deliberately dumb: no varints, no
// compression, no field tags. Snapshots are pure functions of machine state,
// so two runs that reach the same state produce byte-identical snapshots —
// the property the determinism tests assert.
//
// A Codec sits on top and walks state in one direction chosen at
// construction: Encoder(w) appends every visited field, Decoder(r)
// overwrites it. Each subsystem has a single Snap(c *Codec) method whose
// visitors take pointers (c.Bool(&p.Dirty), Int64(c, &d.busyAt),
// c.Counters(&st), Slice, Map), so a field is spelled once and the encode and
// decode sides cannot drift. Len and Bound carry the restore-side bound
// checks, Const the configuration facts a snapshot must agree with, Failf and
// Check the remaining restore-side validation: a damaged or forged snapshot
// becomes an error, not a machine that panics later.
//
// Subsystems keep their replay state in an embedded xxxState struct, apart
// from configuration, wiring, scratch and derived indexes. Uncovered runs a
// walk under an address-recording encoder and names any field of such a
// struct the walk never visited; each package's coverage test calls it, so
// an unserialized state field fails a test by name.
package snap

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Magic opens every snapshot stream.
var Magic = [4]byte{'C', 'C', 'S', 'N'}

// Version is the current snapshot format version. Bump it on any change to
// what the subsystems write; Restore refuses other versions. (2: the vm
// section carries the whole stats.VM block, adding RemoteIns. 3: the
// core.cache section carries each entry's length and start in place of its
// bytes, which the cache's frames in the mem.pool section hold.)
const Version = 3

// Writer serializes fixed-width values into a growing buffer.
type Writer struct {
	buf []byte
	err error
}

// NewWriter begins a snapshot stream: magic then version.
func NewWriter() *Writer {
	w := &Writer{buf: make([]byte, 0, 4096)}
	w.buf = append(w.buf, Magic[:]...)
	w.U16(Version)
	return w
}

// Bytes finalizes the stream: a CRC-32 of everything written so far is
// appended and the full buffer returned. The writer must not be used again.
func (w *Writer) Bytes() ([]byte, error) {
	if w.err != nil {
		return nil, w.err
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(w.buf))
	w.buf = append(w.buf, crc[:]...)
	return w.buf, nil
}

// U8 writes one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// Bool writes a boolean as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// U16 writes a little-endian uint16.
func (w *Writer) U16(v uint16) {
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], v)
	w.buf = append(w.buf, b[:]...)
}

// U32 writes a little-endian uint32.
func (w *Writer) U32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	w.buf = append(w.buf, b[:]...)
}

// U64 writes a little-endian uint64.
func (w *Writer) U64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	w.buf = append(w.buf, b[:]...)
}

// I32 writes a little-endian int32.
func (w *Writer) I32(v int32) { w.U32(uint32(v)) }

// I64 writes a little-endian int64.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Int writes an int as 64 bits.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// Bytes32 writes a length-prefixed byte slice (uint32 length).
func (w *Writer) Bytes32(p []byte) {
	w.U32(uint32(len(p)))
	w.buf = append(w.buf, p...)
}

// String writes a length-prefixed string.
func (w *Writer) String(s string) {
	w.U32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// Section writes a named section marker. Markers cost a few bytes and turn
// a misaligned restore into an immediate, located error instead of a
// garbage-field cascade.
func (w *Writer) Section(name string) { w.String(name) }

// Reader decodes a stream produced by Writer.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader validates the magic, version, and trailing checksum, returning
// a reader positioned after the header.
func NewReader(data []byte) (*Reader, error) {
	if len(data) < 10 { // magic + version + crc
		return nil, fmt.Errorf("snap: %d-byte stream is too short", len(data))
	}
	body, crc := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.ChecksumIEEE(body) != crc {
		return nil, fmt.Errorf("snap: checksum mismatch (corrupt or truncated snapshot)")
	}
	if [4]byte{data[0], data[1], data[2], data[3]} != Magic {
		return nil, fmt.Errorf("snap: bad magic")
	}
	r := &Reader{buf: body, off: 4}
	if v := r.U16(); v != Version {
		return nil, fmt.Errorf("snap: version %d, this build reads %d", v, Version)
	}
	return r, nil
}

// Close verifies the stream was consumed exactly.
func (r *Reader) Close() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("snap: %d trailing bytes after restore", len(r.buf)-r.off)
	}
	return nil
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.buf) {
		r.err = fmt.Errorf("snap: truncated stream (want %d bytes at offset %d of %d)", n, r.off, len(r.buf))
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a boolean.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// U16 reads a little-endian uint16.
func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I32 reads a little-endian int32.
func (r *Reader) I32() int32 { return int32(r.U32()) }

// I64 reads a little-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int reads an int written by Writer.Int.
func (r *Reader) Int() int { return int(r.I64()) }

// Bytes32 reads a length-prefixed byte slice. The slice is a copy.
func (r *Reader) Bytes32() []byte {
	n := int(r.U32())
	if r.err != nil {
		return nil
	}
	b := r.take(n)
	if b == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := int(r.U32())
	if r.err != nil {
		return ""
	}
	b := r.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// Section consumes a section marker and fails the stream if it does not
// match — the first line of defense against writer/reader drift.
func (r *Reader) Section(name string) {
	if r.err != nil {
		return
	}
	got := r.String()
	if r.err == nil && got != name {
		r.err = fmt.Errorf("snap: section %q, want %q (writer/reader drift)", got, name)
	}
}
