package swap

import (
	"cmp"
	"maps"
	"slices"

	"compcache/internal/snap"
)

// PageTable is the page index every store and the compression cache share:
// PageKey → T, dense. A row per segment holds a slot per page and grows with
// the pages actually set, so Get is two bounds checks and a load rather than a
// hash. Segment ids are zig-zag folded (0, -1, 1, -2, …) so the compressed
// file cache's negative synthetic segments get rows too.
//
// Keys a row will not grow to reach live in one spill map instead: a page more
// than pageReach past the end of its row (or negative), a segment more than
// segReach past the end of the row table. That is the guarded edge — keys come
// off media and out of snapshots unvalidated, and a dense index would
// otherwise allocate in proportion to the largest key it is shown. With it a
// single Set allocates at most one row of len(row)+pageReach slots (or twice
// the old row, when appending), segReach row headers, or one spill entry. A
// key has one home: Set moves a spilled key into its row once the row has
// grown close enough.
//
// Range iterates in compareKey order (segment, then page, both signed). That
// order is the snapshot contract: the stores used to write Go maps key-sorted
// (snap.Map), and a table walked in the same order writes the same bytes.
//
// The zero value is an empty table.
type PageTable[T any] struct {
	rows  [][]pageSlot[T]
	spill map[PageKey]T
	dense int // keys set in rows
}

type pageSlot[T any] struct {
	v  T
	ok bool
}

// The reach of a row and of the row table past their current ends.
const (
	pageReach = 4096
	segReach  = 64
)

// rowOf folds a segment id into its row number.
func rowOf(seg int32) uint32 { return uint32(seg<<1) ^ uint32(seg>>31) }

// Len reports the number of keys set.
func (t *PageTable[T]) Len() int { return t.dense + len(t.spill) }

// Get returns the value set for k.
func (t *PageTable[T]) Get(k PageKey) (v T, ok bool) {
	if r := rowOf(k.Seg); r < uint32(len(t.rows)) {
		if row := t.rows[r]; uint32(k.Page) < uint32(len(row)) && row[k.Page].ok {
			return row[k.Page].v, true
		}
	}
	if t.spill != nil {
		v, ok = t.spill[k]
	}
	return v, ok
}

// Has reports whether k is set.
func (t *PageTable[T]) Has(k PageKey) bool {
	_, ok := t.Get(k)
	return ok
}

// Set binds k to v.
func (t *PageTable[T]) Set(k PageKey, v T) {
	r := rowOf(k.Seg)
	if r >= uint32(len(t.rows)) {
		if r-uint32(len(t.rows)) >= segReach {
			t.setSpill(k, v)
			return
		}
		t.rows = append(t.rows, make([][]pageSlot[T], int(r)+1-len(t.rows))...)
	}
	row := t.rows[r]
	if uint32(k.Page) >= uint32(len(row)) {
		if k.Page < 0 || int(k.Page)-len(row) >= pageReach {
			t.setSpill(k, v)
			return
		}
		need := int(k.Page) + 1
		if need > cap(row) {
			grown := make([]pageSlot[T], need, max(need, 2*cap(row)))
			copy(grown, row)
			row = grown
		}
		row = row[:need]
		t.rows[r] = row
	}
	if len(t.spill) > 0 {
		delete(t.spill, k) // it spilled when the row was shorter
	}
	if !row[k.Page].ok {
		t.dense++
	}
	row[k.Page] = pageSlot[T]{v, true}
}

func (t *PageTable[T]) setSpill(k PageKey, v T) {
	if t.spill == nil {
		t.spill = make(map[PageKey]T)
	}
	t.spill[k] = v
}

// Delete unsets k.
func (t *PageTable[T]) Delete(k PageKey) {
	if r := rowOf(k.Seg); r < uint32(len(t.rows)) {
		if row := t.rows[r]; uint32(k.Page) < uint32(len(row)) && row[k.Page].ok {
			row[k.Page] = pageSlot[T]{}
			t.dense--
			return
		}
	}
	delete(t.spill, k)
}

// Clear unsets every key and keeps the rows' memory.
func (t *PageTable[T]) Clear() {
	for _, row := range t.rows {
		clear(row)
	}
	t.spill = nil
	t.dense = 0
}

// Keys returns the keys set, in compareKey order.
func (t *PageTable[T]) Keys() []PageKey {
	keys := make([]PageKey, 0, t.Len())
	t.Range(func(k PageKey, _ T) { keys = append(keys, k) })
	return keys
}

// Range calls f for every key in compareKey order. f must not Set or Delete.
func (t *PageTable[T]) Range(f func(PageKey, T)) {
	var far []PageKey
	if len(t.spill) > 0 {
		far = slices.SortedFunc(maps.Keys(t.spill), compareKey)
	}
	// Rows in signed segment order: the odd (negative) rows downward, then
	// the even ones upward. Before each dense key come the spilled keys that
	// sort below it.
	neg, pos := int32(len(t.rows)/2), int32((len(t.rows)+1)/2)
	for seg := -neg; seg < pos; seg++ {
		for page, s := range t.rows[rowOf(seg)] {
			if !s.ok {
				continue
			}
			k := PageKey{Seg: seg, Page: int32(page)}
			for len(far) > 0 && compareKey(far[0], k) < 0 {
				f(far[0], t.spill[far[0]])
				far = far[1:]
			}
			f(k, s.v)
		}
	}
	for _, k := range far {
		f(k, t.spill[k])
	}
}

// Snap visits the table in the stream snap.Map writes for a map keyed by
// page: its bounded size, then each pair through kv in key order. Decoding
// replaces the contents and fails on a repeated key.
func (t *PageTable[T]) Snap(c *snap.Codec, max int, what string, kv func(*PageKey, *T)) {
	c.Mark(t)
	n := t.Len()
	if c.Decoding() {
		t.Clear()
	}
	snap.Keyed(c, n, max, what, t.Range, kv, func(k PageKey, v T) bool {
		if t.Has(k) {
			return false
		}
		t.Set(k, v)
		return true
	})
}

// compareKey orders page keys by segment, then page.
func compareKey(a, b PageKey) int {
	return cmp.Or(cmp.Compare(a.Seg, b.Seg), cmp.Compare(a.Page, b.Page))
}
