package mem

import (
	"fmt"

	"compcache/internal/snap"
)

// Snap walks the pool's replay state exactly: every frame's bytes (zeros in
// a chunk not yet made), the owner table, and the free list in its current
// order. Restoring the pool verbatim is what keeps every FrameID held by the
// other subsystems (VM page tables, cache ring, buffer cache, LFS segment
// buffer) valid across a snapshot/restore cycle without any pointer
// rewriting. The geometry is fixed by the configuration; machine.Restore
// rebuilds the pool from it first.
func (p *Pool) Snap(c *snap.Codec) {
	c.Section("mem.pool")
	snap.Const(c, c.Int, p.pageSize, "mem: page size")
	snap.Const(c, c.Int, len(p.owner), "mem: frame count")
	c.Chunked(&p.data, ChunkFrames*p.pageSize, len(p.owner)*p.pageSize, "mem: frame data")
	c.Mark(&p.owner)
	for i := range p.owner {
		snap.Byte(c, &p.owner[i])
	}
	snap.Slice(c, &p.free, len(p.owner), "free frames", func(id *FrameID) { snap.Int32(c, id) })
	c.Check(p.adoptOwners)
}

// adoptOwners validates a decoded owner table and free list — a frame on the
// free list must exist, be Free and appear once, or the first Alloc hands out
// a wild or doubly-owned frame — recomputes the census, and gives storage to
// every chunk that holds an owned frame, which Bytes may be asked for.
func (p *Pool) adoptOwners() error {
	p.counts = [numOwners]int32{}
	for i, o := range p.owner {
		if o < Free || o >= numOwners {
			return fmt.Errorf("mem: snapshot frame %d has invalid owner %d", i, o)
		}
		p.counts[o]++
		if c := i >> chunkShift; o != Free && p.data[c] == nil {
			p.data[c] = make([]byte, p.chunkLen(c))
		}
	}
	listed := make([]bool, len(p.owner))
	for _, id := range p.free {
		if id < 0 || int(id) >= len(p.owner) || p.owner[id] != Free || listed[id] {
			return fmt.Errorf("mem: snapshot free list names frame %d, which is out of range, owned or listed twice", id)
		}
		listed[id] = true
	}
	return p.CheckConservation()
}
