package core

import (
	"fmt"

	"compcache/internal/snap"
)

// Snap walks the cache's replay state exactly: an entry table (live and
// dead-but-referenced entries, discovered in ring order), the frames with
// their entry lists, and the insertion-order deque of live entries. Dead
// entries matter — they still occupy frame space and gate reclaimability.
// An entry carries its length and where it starts, not its bytes: those are
// in its frames, which the pool's section holds. Frames and the deque name
// entries by their index in the table.
//
// Decoding needs a freshly constructed cache. A prefilled cache (FixedFrames)
// grabbed frames at construction; the pool restore has already rewritten
// ownership, so its stand-in ring is simply replaced. The decoded order deque
// is compacted (dead slots dropped, head reset to 0); that renumbering is
// invisible to behavior — OldestAge and Clean skip nil slots either way.
func (c *Cache) Snap(sc *snap.Codec) {
	sc.Section("core.cache")
	if sc.Decoding() && len(c.frames) > 0 && c.st.Inserts > 0 {
		sc.Failf("core: restore into a cache that has been used")
		return
	}
	var list, live []*Entry
	idx := make(map[*Entry]int)
	if !sc.Decoding() {
		// (Index loops: f.entries is a slice, but shares its name with the
		// cache's entry index.)
		for fi := 0; fi < len(c.frames); fi++ {
			f := c.frames[fi]
			for ei := 0; ei < len(f.entries); ei++ {
				if _, ok := idx[f.entries[ei]]; !ok {
					idx[f.entries[ei]] = len(list)
					list = append(list, f.entries[ei])
				}
			}
		}
		for _, e := range c.order[c.head:] {
			if e != nil {
				live = append(live, e)
			}
		}
	}
	snap.Slice(sc, &list, 1<<24, "cache entries", func(ep **Entry) {
		if sc.Decoding() {
			*ep = &Entry{oidx: -1}
			(*ep).frames = (*ep).frameBuf[:0]
		}
		e := *ep
		sc.I32(&e.Key.Seg)
		sc.I32(&e.Key.Page)
		sc.Bool(&e.dead)
		sc.Bool(&e.Dirty)
		sc.U32(&e.Sum)
		snap.Int64(sc, &e.insert)
		sc.I32(&e.n)
		sc.I32(&e.start)
		if sc.Decoding() && (e.n < 0 || int(e.n) > c.pool.PageSize()) {
			sc.Failf("core: snapshot entry %v holds %d bytes, not 0 to a page", e.Key, e.n)
		}
	})
	// entryRef visits one reference into the entry table.
	entryRef := func(ep **Entry) {
		k := idx[*ep]
		sc.Int(&k)
		if k < 0 || k >= len(list) {
			sc.Failf("core: snapshot references entry %d of %d", k, len(list))
		} else if sc.Decoding() {
			*ep = list[k]
		}
	}
	snap.Slice(sc, &c.frames, 1<<24, "cache frames", func(fp **ccFrame) {
		if sc.Decoding() {
			*fp = &ccFrame{}
		}
		f := *fp
		snap.Int32(sc, &f.id)
		sc.Int(&f.used)
		snap.Slice(sc, &f.entries, 1<<20, "entries in a cache frame", func(ep **Entry) {
			if entryRef(ep); sc.Decoding() && *ep != nil {
				(*ep).frames = append((*ep).frames, f)
				(*ep).refs++
			}
		})
	})
	sc.Mark(&c.order, &c.head)
	snap.Slice(sc, &live, len(list), "ordered cache entries", entryRef)
	sc.Int(&c.liveBytes)
	sc.Int(&c.dirtyBytes)
	sc.Counters(&c.st)
	sc.Check(func() error {
		c.order, c.head = live, 0
		for i, e := range live {
			e.oidx = int32(i)
		}
		c.entries.Clear()
		for _, e := range list {
			if e.dead {
				continue
			}
			if c.entries.Has(e.Key) {
				return fmt.Errorf("core: snapshot holds two live entries for page %v", e.Key)
			}
			c.entries.Set(e.Key, e)
		}
		// The dirty counts are derived state: recount them.
		c.reclaimable = 0
		for _, f := range c.frames {
			if f.dirty = f.scanDirty(); f.dirty == 0 {
				c.reclaimable++
			}
		}
		return c.CheckConsistency()
	})
}
