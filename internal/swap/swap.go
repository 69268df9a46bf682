// Package swap implements the interface between virtual memory and the
// backing store (§4.3 of the paper).
//
// Two stores are provided:
//
//   - Direct: the unmodified Sprite arrangement. Each segment has a swap
//     file and page p lives at offset p*pageSize, so locating a page is
//     trivial and every transfer is exactly one page (one file block).
//
//   - Clustered: the paper's design for compressed pages. Each compressed
//     page is padded to a uniform fragment size (1 KByte in the paper) and
//     sets of fragments are written in a single clustered operation
//     (32 KBytes in the paper). The fixed page↔block mapping is lost, so the
//     store keeps an explicit location map, performs free-fragment
//     accounting, and garbage-collects the swap file as pages are
//     rewritten to new locations. A parameter controls whether pages may
//     span file-block boundaries; when they may not, fragmentation rises
//     and effective write bandwidth falls, exactly the trade §4.3 discusses.
//
// Reads honour the file system's whole-block rule: a clustered read returns
// not just the requested page but every other page wholly contained in the
// blocks read, which the machine inserts into the compression cache as clean
// pages ("multiple pages can be obtained with a single read", §5.1).
package swap

import (
	"fmt"

	"compcache/internal/fs"
	"compcache/internal/stats"
)

// PageKey identifies a virtual page: segment ID and page number within the
// segment.
type PageKey struct {
	Seg  int32
	Page int32
}

func (k PageKey) String() string { return fmt.Sprintf("seg%d:p%d", k.Seg, k.Page) }

// Item is one page's worth of data bound for the backing store.
type Item struct {
	Key        PageKey
	Data       []byte // compressed or raw page bytes
	Compressed bool   // whether Data is compressed (affects fault handling)
	Sum        uint32 // integrity checksum of Data, computed when it entered the cache
}

// Direct is the unmodified-Sprite backing store: one file per segment,
// page p at byte offset p*pageSize. Writes and reads are whole pages.
type Direct struct {
	directState
	fsys     *fs.FS
	pageSize int
}

// directState is the store's replay state: everything a snapshot carries.
type directState struct {
	files   []*fs.File // per-segment swap file, by segment id; stored by name
	present PageTable[struct{}]
	st      stats.Swap
}

// NewDirect creates a direct store for pages of pageSize bytes.
func NewDirect(fsys *fs.FS, pageSize int) (*Direct, error) {
	if pageSize%fsys.BlockSize() != 0 {
		return nil, fmt.Errorf("swap: page size %d not a multiple of block size %d",
			pageSize, fsys.BlockSize())
	}
	return &Direct{fsys: fsys, pageSize: pageSize}, nil
}

func (d *Direct) file(seg int32) *fs.File {
	if uint(seg) < uint(len(d.files)) && d.files[seg] != nil {
		return d.files[seg]
	}
	for int(seg) >= len(d.files) {
		d.files = append(d.files, nil)
	}
	d.files[seg] = d.fsys.Create(fmt.Sprintf("swap.seg%d", seg))
	return d.files[seg]
}

// Write stores a raw page. The write is queued asynchronously; the disk's
// busy timeline serializes it ahead of subsequent reads. On a device error
// the store does not mark the page present — the old copy (if any) remains
// the authoritative one.
func (d *Direct) Write(key PageKey, data []byte) error {
	if len(data) != d.pageSize {
		// Invariant: the VM layer always pages out whole pages; a short
		// buffer is a programming error, not a runtime fault.
		panic(fmt.Sprintf("swap: Direct.Write of %d bytes, want a whole %d-byte page", len(data), d.pageSize))
	}
	f := d.file(key.Seg)
	if _, err := f.RawWriteAsync(data, int64(key.Page)*int64(d.pageSize), d.pageSize); err != nil {
		return err
	}
	d.present.Set(key, struct{}{})
	d.st.PagesOut++
	return nil
}

// Read fetches a raw page into buf. It reports false if the page was never
// written.
func (d *Direct) Read(key PageKey, buf []byte) (bool, error) {
	if !d.present.Has(key) {
		return false, nil
	}
	if len(buf) != d.pageSize {
		// Invariant: the VM layer always pages in whole pages.
		panic("swap: Direct.Read needs a whole-page buffer")
	}
	if err := d.file(key.Seg).RawRead(buf, int64(key.Page)*int64(d.pageSize), d.pageSize); err != nil {
		return false, err
	}
	d.st.PagesIn++
	return true, nil
}

// Has reports whether the store holds a copy of the page.
func (d *Direct) Has(key PageKey) bool { return d.present.Has(key) }

// Invalidate forgets the stored copy (the in-memory page was modified).
func (d *Direct) Invalidate(key PageKey) { d.present.Delete(key) }

// Stats returns a snapshot of the store's counters.
func (d *Direct) Stats() stats.Swap { return d.st }

// CheckConsistency validates the present set against the swap files: every
// page the store claims to hold was written into its segment's file.
func (d *Direct) CheckConsistency() (err error) {
	d.present.Range(func(key PageKey, _ struct{}) {
		if uint(key.Seg) >= uint(len(d.files)) || d.files[key.Seg] == nil || key.Page < 0 ||
			(int64(key.Page)+1)*int64(d.pageSize) > d.files[key.Seg].Size() {
			err = fmt.Errorf("swap: direct holds %v, which was never written to a swap file", key)
		}
	})
	return err
}
