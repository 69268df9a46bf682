// Package mem manages the simulated machine's physical page frames.
//
// A frame is a real []byte of one page; frames are owned at any instant by
// exactly one consumer — the VM system (an uncompressed resident page), the
// compression cache, the file system's buffer cache — or they are free. The
// pool enforces conservation: frames never appear or disappear, which is one
// of the property-tested invariants of the simulation (the three-way memory
// trade of §4.2 of the paper only makes sense if the three consumers compete
// for a fixed stock).
package mem

import (
	"fmt"
	"math"
)

// FrameID names a physical page frame. NoFrame is the zero of the type and
// never names a real frame.
type FrameID int32

// NoFrame is the sentinel "no frame" value.
const NoFrame FrameID = -1

// Owner identifies which subsystem holds a frame.
type Owner int8

// Frame owners.
const (
	Free   Owner = iota // on the free list
	VM                  // holds an uncompressed resident virtual-memory page
	CC                  // mapped into the compression cache
	FS                  // holds a file-system buffer-cache block
	Kernel              // pinned kernel metadata (page tables, CC headers)
	numOwners
)

// String returns the owner name.
func (o Owner) String() string {
	switch o {
	case Free:
		return "free"
	case VM:
		return "vm"
	case CC:
		return "cc"
	case FS:
		return "fs"
	case Kernel:
		return "kernel"
	default:
		return fmt.Sprintf("owner(%d)", int(o))
	}
}

// Pool is the fixed stock of physical page frames.
type Pool struct {
	poolState
	pageSize int
	counts   [numOwners]int32 // per-owner census of the owner table

	lent FrameID // the one frame on loan, NoFrame when none; see Lend

	one [1][]byte // data of a one-chunk pool, which then allocates no table
}

// poolState is the pool's replay state: everything a snapshot carries.
type poolState struct {
	data  [][]byte // chunk table; frame id lies in data[id>>chunkShift], nil until Alloc first reaches it
	owner []Owner
	free  []FrameID
}

// ChunkFrames is how many frames share one backing array. Frame storage is
// made a chunk at a time, the first time Alloc hands out a frame in it, so a
// machine with memory to spare holds on the host only what it ever used; at
// 4-KByte pages a chunk is 1 MByte.
const ChunkFrames = 1 << chunkShift

const chunkShift = 8

// NewPool creates a pool of n frames of pageSize bytes each.
func NewPool(n, pageSize int) *Pool {
	if n <= 0 || n > math.MaxInt32 || pageSize <= 0 {
		// Invariant: construction-time configuration error; machine.Config
		// validation rejects bad geometry before reaching here.
		panic(fmt.Sprintf("mem: invalid pool geometry %d x %d", n, pageSize))
	}
	p := &Pool{pageSize: pageSize, lent: NoFrame, poolState: poolState{
		owner: make([]Owner, n),
		free:  make([]FrameID, 0, n),
	}}
	if chunks := (n + ChunkFrames - 1) >> chunkShift; chunks == 1 {
		p.data = p.one[:]
	} else {
		p.data = make([][]byte, chunks)
	}
	// Push in reverse so frame 0 is handed out first; allocation order is
	// deterministic, which keeps runs reproducible.
	for i := n - 1; i >= 0; i-- {
		p.free = append(p.free, FrameID(i))
	}
	p.counts[Free] = int32(n)
	return p
}

// PageSize reports the frame size in bytes.
func (p *Pool) PageSize() int { return p.pageSize }

// Total reports the number of frames in the pool.
func (p *Pool) Total() int { return len(p.owner) }

// FreeCount reports the number of free frames.
func (p *Pool) FreeCount() int { return int(p.counts[Free]) }

// OwnedBy reports how many frames o currently holds.
func (p *Pool) OwnedBy(o Owner) int { return int(p.counts[o]) }

// Alloc takes a free frame for owner o. It reports ok=false when the pool is
// exhausted; the caller must then reclaim a frame through the replacement
// policy. The frame's contents are NOT zeroed: like real page frames they
// hold whatever the previous owner left, and callers that need zero-fill
// (fresh VM pages) must clear them.
func (p *Pool) Alloc(o Owner) (FrameID, bool) {
	if o == Free || o >= numOwners {
		// Invariant: owners are compile-time constants; an invalid one is a
		// programming error, not a condition injected faults can create.
		panic(fmt.Sprintf("mem: Alloc for invalid owner %v", o))
	}
	if len(p.free) == 0 {
		return NoFrame, false
	}
	id := p.free[len(p.free)-1]
	if id == p.lent && (o == VM || o == FS) {
		// Invariant: nothing reachable from PageOut or Store allocates for VM
		// or FS; if that changed, the lent page would be overwritten while it
		// is being compressed or written out. Checked here — once per fault,
		// never per reference — so Bytes and ownerOf stay inlineable.
		panic(fmt.Sprintf("mem: frame %d is on loan and cannot go to %v, which writes frame bytes", id, o))
	}
	p.free = p.free[:len(p.free)-1]
	if c := id >> chunkShift; p.data[c] == nil {
		p.data[c] = make([]byte, p.chunkLen(int(c)))
	}
	p.owner[id] = o
	p.counts[Free]--
	p.counts[o]++
	return id, true
}

// Release returns a frame to the free list.
func (p *Pool) Release(id FrameID) {
	o := p.ownerOf(id)
	if o == Free {
		// Invariant: frame ownership is tracked exactly (CheckConservation);
		// a double release is accounting corruption, the simulated kernel's
		// equivalent of a double free — fail loudly, never degrade.
		panic(fmt.Sprintf("mem: double release of frame %d", id))
	}
	p.counts[o]--
	p.counts[Free]++
	p.owner[id] = Free
	p.free = append(p.free, id)
}

// Lend releases frame id and opens a loan on its bytes, which it returns:
// they still hold the page id's owner is evicting and stay intact until
// EndLoan. Releasing first lets whoever absorbs the page take that very frame
// (the compression cache growing by one to hold it), which is safe for CC and
// Kernel: their frames are accounting only — the cache keeps entry bytes in
// its own slabs. VM (a fault fills the frame) and FS (a buffer-cache block)
// do write frame bytes, so Alloc refuses them the frame meanwhile.
func (p *Pool) Lend(id FrameID) []byte {
	if p.lent != NoFrame {
		// Invariant: a loan spans one PageOut or one compressed-block Store,
		// and neither evicts; a nested loan is a reentrancy bug.
		panic(fmt.Sprintf("mem: Lend of frame %d while frame %d is on loan", id, p.lent))
	}
	p.Release(id)
	p.lent = id
	return p.Bytes(id)
}

// EndLoan closes the loan Lend opened.
func (p *Pool) EndLoan() {
	if p.lent == NoFrame {
		// Invariant: every EndLoan pairs with the Lend a few lines above it.
		panic("mem: EndLoan with no frame on loan")
	}
	p.lent = NoFrame
}

// Owner reports the current owner of a frame.
func (p *Pool) Owner(id FrameID) Owner { return p.ownerOf(id) }

// Bytes returns the frame's backing bytes (always pageSize long). The frame
// must have been handed out at least once; an id that names no such frame
// panics in the chunk-table load or in the slice.
func (p *Pool) Bytes(id FrameID) []byte {
	c := p.data[id>>chunkShift]
	off := int(id&(ChunkFrames-1)) * p.pageSize
	return c[off : off+p.pageSize : off+p.pageSize]
}

// chunkLen is the byte length of chunk c: ChunkFrames frames, fewer in the
// last chunk.
func (p *Pool) chunkLen(c int) int {
	return min(ChunkFrames, len(p.owner)-c<<chunkShift) * p.pageSize
}

// CheckConservation verifies that ownership counts are consistent with the
// per-frame table and sum to the pool size. Tests call it after stressing
// the policy machinery.
func (p *Pool) CheckConservation() error {
	var counts [numOwners]int32
	for _, o := range p.owner {
		counts[o]++
	}
	if counts != p.counts {
		return fmt.Errorf("mem: ownership counts drifted: table %v, counters %v", counts, p.counts)
	}
	sum := 0
	for _, c := range counts {
		sum += int(c)
	}
	if sum != len(p.owner) {
		return fmt.Errorf("mem: frame count drifted: %d != %d", sum, len(p.owner))
	}
	if int(counts[Free]) != len(p.free) {
		return fmt.Errorf("mem: free list length %d != free count %d", len(p.free), counts[Free])
	}
	if p.lent != NoFrame {
		return fmt.Errorf("mem: frame %d is still on loan", p.lent)
	}
	return nil
}

// Claims audits the frames subsystems say they hold against the owner table.
type Claims struct {
	p    *Pool
	held []bool
}

// Claims starts an audit with no frame claimed.
func (p *Pool) Claims() *Claims { return &Claims{p: p, held: make([]bool, len(p.owner))} }

// Claim records that a subsystem holds frame id as owner o. It fails when no
// such frame exists, the pool records a different owner, or the frame was
// claimed before — each the precursor of a wild access or a double release.
func (c *Claims) Claim(id FrameID, o Owner) error {
	switch {
	case id < 0 || int(id) >= len(c.held):
		return fmt.Errorf("mem: %v holds frame %d, pool has %d frames", o, id, len(c.held))
	case c.p.owner[id] != o:
		return fmt.Errorf("mem: %v holds frame %d, which the pool records as %v", o, id, c.p.owner[id])
	case c.held[id]:
		return fmt.Errorf("mem: %v holds frame %d twice", o, id)
	}
	c.held[id] = true
	return nil
}

func (p *Pool) ownerOf(id FrameID) Owner {
	if uint(id) >= uint(len(p.owner)) {
		// Invariant: callers hold ids Alloc returned (see badFrame).
		panic(badFrame{id, len(p.owner)})
	}
	return p.owner[id]
}

// badFrame is the panic value for a frame id that names no frame.
// Invariant: frame ids only come from Alloc; an out-of-range id is the
// simulated equivalent of a wild kernel pointer. It is a value, formatted
// only when the panic is printed, so that raising it leaves ownerOf small
// enough to inline into Owner and Release (a Sprintf call, even out of line,
// would not).
type badFrame struct {
	id     FrameID
	frames int
}

func (b badFrame) Error() string {
	return fmt.Sprintf("mem: bad frame id %d (pool has %d frames)", b.id, b.frames)
}
