package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"compcache/internal/mem"
	"compcache/internal/sim"
	"compcache/internal/snap"
	"compcache/internal/swap"
)

// FuzzCacheFrames drives a stream of operations, drawn from prog with
// payloads from seed, over a cache of a few frames and holds it against a
// map from key to the bytes last inserted. Inserts run from one byte to a
// whole page, so entries lie in one, two and three frames; the stream also
// drops, faults, peeks, cleans (the flush failing at times, during inserts
// too), releases the oldest frame and takes the cache through a snapshot
// round trip. mode picks an unbounded cache, one rotating at MaxFrames, or a
// FixedFrames one. After every step each live entry must read back from its
// frames as the bytes inserted, the frames' headers and slack must be zero,
// and CheckConsistency must hold. testdata/fuzz/FuzzCacheFrames holds a seed
// for each mode.
func FuzzCacheFrames(f *testing.F) {
	f.Add(int64(1), uint8(0), []byte{0, 9, 18, 27, 1, 4, 13, 6, 7, 8, 2, 3, 5})
	f.Fuzz(func(t *testing.T, seed int64, mode uint8, prog []byte) {
		r := newFramesRig(t, seed, mode)
		// A dozen frames fill and turn over within a few hundred steps, and
		// every step checks them all: longer programs are cut short.
		for i, op := range prog[:min(len(prog), 512)] {
			r.step(op)
			if err := r.check(); err != nil {
				t.Fatalf("after op %d (%d): %v", i, op, err)
			}
		}
	})
}

// framesRig is FuzzCacheFrames' cache, its pool and its model.
type framesRig struct {
	t      *testing.T
	rng    *rand.Rand
	params Params
	clock  sim.Clock
	pool   *mem.Pool
	c      *Cache
	model  map[swap.PageKey][]byte
	fail   bool // the flush hook fails while set
}

var errFlush = errors.New("test: flush failed")

func newFramesRig(t *testing.T, seed int64, mode uint8) *framesRig {
	r := &framesRig{t: t, rng: rand.New(rand.NewSource(seed)), params: DefaultParams(),
		model: make(map[swap.PageKey][]byte)}
	frames, k := 10, 3+int(mode/3)%4
	switch mode % 3 {
	case 1:
		frames, r.params.MaxFrames = 12, k
	case 2:
		frames, r.params.MinFrames, r.params.MaxFrames = 12, k, k
	}
	r.pool = mem.NewPool(frames, 4096)
	// Frames come to the cache holding a previous owner's bytes.
	for range frames {
		id, _ := r.pool.Alloc(mem.VM)
		for i := range r.pool.Bytes(id) {
			r.pool.Bytes(id)[i] = 0xa5
		}
	}
	for id := range frames {
		r.pool.Release(mem.FrameID(id))
	}
	r.c = New(r.params, &r.clock, r.pool)
	r.hook(r.c)
	if mode%3 == 2 {
		r.c.Prefill(k)
	}
	return r
}

// hook installs the rig's flush and drop hooks on c, and the rig as its
// frame taker.
func (r *framesRig) hook(c *Cache) {
	c.SetHooks(func(items []swap.Item) error {
		if r.fail {
			return errFlush
		}
		for _, it := range items {
			if want, ok := r.model[it.Key]; !ok || !bytes.Equal(it.Data, want) || Checksum(it.Data) != it.Sum || !it.Compressed {
				r.t.Fatalf("flush of %v: %d bytes, not the %d inserted (live %t)", it.Key, len(it.Data), len(want), ok)
			}
		}
		return nil
	}, func(k swap.PageKey) {
		if _, ok := r.model[k]; !ok {
			r.t.Fatalf("drop of %v, which holds nothing", k)
		}
		delete(r.model, k)
	})
	c.SetFrameTaker(r)
}

// TakeFrame checks that a frame the cache takes is the cache's.
func (r *framesRig) TakeFrame(id mem.FrameID) {
	if o := r.pool.Owner(id); o != mem.CC {
		r.t.Fatalf("the cache took frame %d, which the pool records as %v", id, o)
	}
}

// step runs one operation: op%9 picks it and op/9 the key.
func (r *framesRig) step(op byte) {
	k := swap.PageKey{Seg: 1, Page: int32(op/9) % 7}
	r.fail = r.rng.Intn(8) == 0
	defer func() { r.fail = false }()
	switch op % 9 {
	case 0, 1, 2:
		var n int
		switch r.rng.Intn(4) {
		case 0:
			n = 1 + r.rng.Intn(64)
		case 1:
			n = 1 + r.rng.Intn(2048)
		case 2:
			n = 2048 + r.rng.Intn(2049)
		default:
			n = 4096 - r.rng.Intn(64)
		}
		data := make([]byte, n)
		r.rng.Read(data)
		ok, err := r.c.Insert(k, data, r.rng.Intn(2) == 0)
		if ok {
			r.model[k] = data
		} else if err != nil && !errors.Is(err, errFlush) {
			r.t.Fatalf("Insert: %v", err)
		}
	case 3:
		r.c.Drop(k)
		delete(r.model, k)
	case 4, 5:
		var got []byte
		var sum uint32
		var ok bool
		if op%9 == 4 {
			got, sum, _, ok = r.c.Fault(k)
		} else {
			got, sum, ok = r.c.Peek(k)
		}
		want, live := r.model[k]
		if ok != live || ok && (!bytes.Equal(got, want) || sum != Checksum(want)) {
			r.t.Fatalf("%v: found %t with %d bytes, want %t with %d", k, ok, len(got), live, len(want))
		}
	case 6:
		if _, err := r.c.Clean(); err != nil && !errors.Is(err, errFlush) {
			r.t.Fatalf("Clean: %v", err)
		}
	case 7:
		if _, err := r.c.ReleaseOldest(); err != nil && !errors.Is(err, errFlush) {
			r.t.Fatalf("ReleaseOldest: %v", err)
		}
	case 8:
		r.roundTrip()
	}
}

// roundTrip snapshots the pool and the cache, restores them into a fresh
// pair, checks that the pair snapshots to the same bytes, and carries on with
// it.
func (r *framesRig) roundTrip() {
	encode := func(p *mem.Pool, c *Cache) []byte {
		w := snap.NewWriter()
		sc := snap.Encoder(w)
		p.Snap(sc)
		c.Snap(sc)
		img, err := w.Bytes()
		if err != nil {
			r.t.Fatal(err)
		}
		return img
	}
	img := encode(r.pool, r.c)
	pool := mem.NewPool(r.pool.Total(), r.pool.PageSize())
	c := New(r.params, &r.clock, pool)
	rd, err := snap.NewReader(img)
	if err != nil {
		r.t.Fatal(err)
	}
	sc := snap.Decoder(rd)
	pool.Snap(sc)
	c.Snap(sc)
	if err := rd.Close(); err != nil {
		r.t.Fatalf("restore: %v", err)
	}
	if again := encode(pool, c); !bytes.Equal(again, img) {
		r.t.Fatal("the restored cache snapshots to other bytes")
	}
	r.pool, r.c = pool, c
	r.hook(c)
}

// check holds the cache against the model and its frames' unwritten bytes
// to zero.
func (r *framesRig) check() error {
	if err := r.c.CheckConsistency(); err != nil {
		return err
	}
	if err := r.pool.CheckConservation(); err != nil {
		return err
	}
	if r.c.Len() != len(r.model) {
		return fmt.Errorf("cache holds %d entries, model %d", r.c.Len(), len(r.model))
	}
	for k, want := range r.model {
		got, sum, ok := r.c.Peek(k)
		if !ok || !bytes.Equal(got, want) || sum != Checksum(want) {
			return fmt.Errorf("%v reads back %d bytes (found %t), not the %d inserted", k, len(got), ok, len(want))
		}
	}
	for _, f := range r.c.frames {
		b := r.pool.Bytes(f.id)
		if !zero(b[:r.params.FrameHeaderBytes]) || !zero(b[f.used:]) {
			return fmt.Errorf("frame %d holds bytes in its header or past its %d used", f.id, f.used)
		}
	}
	return nil
}

// zero reports whether b, at most a page long, is all zeros.
func zero(b []byte) bool { return bytes.Equal(b, zeroPage[:len(b)]) }

var zeroPage [4096]byte

// TestCacheSteadyStateZeroAllocs: entries of one byte to a whole page, dirty
// and clean, inserted over one another, faulted back, dropped and reclaimed
// (dirty ones cleaned on the way) — once the freelists, Clean's and Fault's
// buffers have their working size the cycle allocates nothing.
func TestCacheSteadyStateZeroAllocs(t *testing.T) {
	c, _, _ := newTestCache(t, 16, DefaultParams())
	c.SetHooks(noFlush, nil)
	sizes := []int{1, 700, 1500, 3000, 4060, 4096}
	datas := make([][]byte, len(sizes))
	for i, n := range sizes {
		datas[i] = blob(int64(i), n)
	}
	round := 0
	cycle := func() {
		for i := range sizes {
			k, data := key(int32(i)), datas[(i+round)%len(datas)]
			for !insert(t, c, k, data, (i+round)%3 == 0) {
				if !releaseOldest(t, c) {
					t.Fatalf("round %d: no room for %d bytes and nothing to reclaim", round, len(data))
				}
			}
			if got, _, _, ok := c.Fault(k); !ok || !bytes.Equal(got, data) {
				t.Fatalf("round %d: %v does not read back", round, k)
			}
		}
		c.Drop(key(int32(round % len(sizes))))
		round++
	}
	for range 300 { // past two compactions of the order deque
		cycle()
	}
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("%v allocations per warm round of inserts, faults and kills", n)
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}
