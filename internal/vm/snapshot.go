package vm

import (
	"compcache/internal/snap"
	"compcache/internal/swap"
)

// Snap walks the VM's replay state: every segment's page table and the
// resident LRU list as an explicit key sequence (head to tail), so the
// restored replacement order is exact. Frame IDs are recorded as-is — the
// pool is restored verbatim, so they stay valid; the machine's invariant
// check audits them against the pool. Decoding needs a freshly constructed
// VM (no segments). Encoding writes a Partial page as Resident and leaves it
// so: its pager has finished every frame first.
func (v *VM) Snap(c *snap.Codec) {
	c.Section("vm")
	if c.Decoding() && len(v.segs) != 0 {
		c.Failf("vm: restore into a VM that already has %d segment(s)", len(v.segs))
		return
	}
	c.I32(&v.nextSeg)
	snap.Slice(c, &v.segs, 1<<20, "segments", func(sp **Segment) {
		if c.Decoding() {
			*sp = &Segment{}
		}
		s := *sp
		c.I32(&s.ID)
		c.String(&s.Name)
		c.I32(&s.NPages)
		if c.Decoding() {
			if s.NPages <= 0 {
				c.Failf("vm: snapshot segment %q claims %d pages", s.Name, s.NPages)
			}
			if s != v.Segment(s.ID) {
				c.Failf("vm: snapshot segment %q has id %d, which is not its position", s.Name, s.ID)
			}
			s.pages = make([]Page, c.Bound(int(s.NPages), 1<<24, "pages in a segment"))
		}
		for i := 0; i < len(s.pages) && c.Err() == nil; i++ {
			p := &s.pages[i]
			p.Key = swap.PageKey{Seg: s.ID, Page: int32(i)}
			// A Partial page is Resident to the simulated machine, and its
			// pager finishes its frame before a snapshot (PrefixPager).
			state := p.State
			if state == Partial {
				state = Resident
			}
			snap.Byte(c, &state)
			p.State = state
			snap.Int32(c, &p.Frame)
			c.Bool(&p.Dirty)
			c.Bool(&p.SwapValid)
			c.Bool(&p.EverWritten)
			c.Bool(&p.Pinned)
			snap.Int64(c, &p.LastUse)
			if p.State < Untouched || p.State > Swapped {
				c.Failf("vm: snapshot page %v is in unknown state %d", p.Key, p.State)
			}
		}
	})

	c.Mark(&v.lruHead, &v.lruTail)
	c.Int(&v.resident)
	n := c.Bound(v.resident, v.pool.Total(), "resident pages")
	p := v.lruHead
	for i := 0; i < n && c.Err() == nil; i++ {
		var key swap.PageKey
		if !c.Decoding() {
			key = p.Key
		}
		c.I32(&key.Seg)
		c.I32(&key.Page)
		if !c.Decoding() {
			p = p.next
			continue
		}
		s := v.Segment(key.Seg)
		if s == nil || key.Page < 0 || key.Page >= s.NPages {
			c.Failf("vm: snapshot LRU entry %v does not name a page", key)
			return
		}
		if p = s.Page(key.Page); p.prev != nil || p == v.lruHead {
			c.Failf("vm: snapshot LRU lists page %v twice", key)
			return
		}
		if p.prev = v.lruTail; p.prev != nil {
			p.prev.next = p
		} else {
			v.lruHead = p
		}
		v.lruTail = p
	}
	c.Counters(&v.st)
	c.Check(v.CheckLRU)
}
