package swap

import (
	"compcache/internal/fs"
	"compcache/internal/snap"
)

// pageKey visits one page key.
func pageKey(c *snap.Codec, k *PageKey) {
	c.I32(&k.Seg)
	c.I32(&k.Page)
}

// Snap walks the log-structured store's replay state: the segment tables,
// the free list (in order — allocSegment pops from the tail), the open
// segment and its staged bytes, the durable-format sequencing state, and the
// counters. The location map is not stored; it is a pure function of the
// segment tables and is recomputed after decoding. The pinned segment-buffer
// frames are likewise omitted: the rebuilt machine re-pins them during
// construction and the pool restore rewrites ownership verbatim. Decoding
// needs a freshly constructed LFS of the same configuration.
func (l *LFS) Snap(c *snap.Codec) {
	c.Section("swap.lfs")
	snap.Const(c, c.Int, l.pagesPerSeg, "swap: lfs pages per segment")
	snap.Const(c, c.Int, len(l.bufferFrames), "swap: lfs pinned buffer frames")
	snap.Slice(c, &l.segs, 1<<24, "lfs segments", func(sp **lfsSegment) {
		allocated := *sp != nil
		if c.Bool(&allocated); !allocated {
			return
		}
		if c.Decoding() {
			*sp = &lfsSegment{}
		}
		s := *sp
		snap.Slice(c, &s.pages, l.pagesPerSeg, "slots in an lfs segment", func(k *PageKey) { pageKey(c, k) })
		snap.Slice(c, &s.sums, len(s.pages), "lfs slot checksums", c.U32)
		if len(s.sums) != 0 && len(s.sums) != len(s.pages) {
			c.Failf("swap: lfs snapshot segment has %d sums for %d slots", len(s.sums), len(s.pages))
		}
		c.Int(&s.live)
		c.U64(&s.seq)
	})
	snap.Slice(c, &l.free, len(l.segs), "free lfs segments", c.I32)
	c.I32(&l.cur)
	c.Int(&l.curUsed)
	c.U64(&l.seq)
	c.Fixed(&l.stage, "swap: lfs stage (set by the durability configuration)")
	snap.Slice(c, &l.pending, len(l.segs), "pending lfs segments", func(p *lfsPending) {
		c.I32(&p.seg)
		c.U64(&p.afterSeq)
	})
	c.U64(&l.st.PagesOut)
	c.U64(&l.st.PagesIn)
	c.U64(&l.st.GCs)
	c.U64(&l.st.GCBytesCopied)
	c.Check(func() error {
		l.loc.Clear()
		for i, s := range l.segs {
			if s == nil {
				continue
			}
			for idx, key := range s.pages {
				if key != lfsTombstone {
					l.loc.Set(key, lfsLoc{seg: int32(i), idx: int32(idx)})
				}
			}
		}
		return l.CheckConsistency()
	})
}

// Snap walks the clustered store's replay state: the fragment bitmap, the
// page map (key-sorted), the accounting counters, the commit-record
// sequencing state, and the stats. byStart is recomputed after decoding,
// which needs a freshly constructed store of the same configuration.
func (c *Clustered) Snap(sc *snap.Codec) {
	sc.Section("swap.clustered")
	snap.Slice(sc, &c.marked, 1<<28, "clustered fragments", sc.Bool)
	c.extents.Snap(sc, 1<<24, "clustered extents", func(key *PageKey, e *extent) {
		pageKey(sc, key)
		sc.I32(&e.start)
		sc.I32(&e.nfrags)
		sc.I32(&e.length)
		sc.Bool(&e.compressed)
		sc.U32(&e.sum)
		if e.start < 0 || e.nfrags <= 0 || int(e.start)+int(e.nfrags) > len(c.marked) {
			sc.Failf("swap: clustered snapshot extent for %v out of bounds", *key)
		}
	})
	sc.Int(&c.liveFr)
	sc.Int(&c.padFr)
	sc.Int(&c.hint)
	sc.U64(&c.seq)
	c.attempted.Snap(sc, 1<<24, "attempted pages", func(key *PageKey, sum *uint32) {
		pageKey(sc, key)
		sc.U32(sum)
	})
	sc.U64(&c.st.PagesOut)
	sc.U64(&c.st.PagesIn)
	sc.U64(&c.st.GCs)
	sc.U64(&c.st.GCBytesCopied)
	sc.Check(func() error {
		c.byStart = make([]PageKey, len(c.marked))
		c.extents.Range(func(key PageKey, e extent) { c.byStart[e.start] = key })
		return c.CheckConsistency()
	})
}

// Snap walks the direct store's replay state: the per-segment swap files (by
// name, segment-sorted) and the present set. Decoding rebinds the files by
// name — the fs restore has already recreated them.
func (d *Direct) Snap(c *snap.Codec) {
	c.Section("swap.direct")
	snap.Sparse(c, &d.files, 1<<20, "direct swap files", func(f *fs.File) bool { return f != nil }, func(seg *int32, f **fs.File) {
		var name string
		if !c.Decoding() {
			name = (*f).Name()
		}
		c.I32(seg)
		c.String(&name)
		if c.Decoding() && c.Err() == nil {
			var err error
			if *f, err = d.fsys.Open(name); err != nil {
				c.Failf("swap: direct snapshot names missing file %q: %v", name, err)
			}
		}
	})
	d.present.Snap(c, 1<<28, "present pages", func(key *PageKey, _ *struct{}) { pageKey(c, key) })
	c.U64(&d.st.PagesOut)
	c.U64(&d.st.PagesIn)
}
