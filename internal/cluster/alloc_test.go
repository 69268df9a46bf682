package cluster_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"compcache/internal/cluster"
	"compcache/internal/compress"
	"compcache/internal/machine"
	"compcache/internal/netdev"
	"compcache/internal/sim"
)

// TestFleetSteadyStateZeroAllocs is the fleet half of the allocation oracle
// in internal/machine (alloc_test.go there): every member rewrites an
// incompressible working set three times its memory, so each eviction leaves
// the machine for a sibling's donated frames or the server's tier and each
// fault brings a page back over the network. Once the directory entries, the
// tier entries and the kernel's event heap have reached their working size,
// a fleet of one and a fleet of four allocate nothing, and the window's own
// counters show that fleet memory and the server tier are what it drove —
// and, every touch being a write, that the codec ran for every compression
// the members were charged (the compress memo serves clean pages only).
func TestFleetSteadyStateZeroAllocs(t *testing.T) {
	for _, n := range []int{1, 4} {
		t.Run(fmt.Sprintf("machines=%d", n), func(t *testing.T) {
			// Mallocs counts the whole process. A single build-and-measure
			// sees two objects now and then: 5 of 200 fleets of one and 14
			// of 200 fleets of four, with no GC cycle in the window, with
			// actors switching as coroutines (so nothing parks on the
			// scheduler) and with asynchronous preemption off. Those do not
			// recur; an allocation on the paging path does, every time. So
			// a fleet that counted some is built and measured again, and
			// the row fails only if three did.
			var w fleetWindow
			for try := 0; try < 3; try++ {
				if w = steadyFleet(t, n); w.mallocs == 0 {
					break
				}
			}
			if w.mallocs != 0 {
				t.Errorf("%d allocations in %d steady-state touches per member", w.mallocs, steadyTouches)
			}
			if w.remoteIns == 0 {
				t.Error("no measured fault was served by fleet memory (VM.RemoteIns)")
			}
			if w.tier == 0 {
				t.Error("the measured touches never used the server tier (TierHits+Demotions)")
			}
			if w.ran == 0 || w.ran != w.compressions {
				t.Errorf("%d compressions of rewritten pages and the codec ran %d times; want them equal", w.compressions, w.ran)
			}
		})
	}
}

const steadyTouches = 2048

// fleetWindow is what the measured touches of every member added up to.
type fleetWindow struct{ mallocs, remoteIns, tier, compressions, ran uint64 }

// count reads the counters that show a fleet paged through fleet memory and
// the server's tier.
func (w *fleetWindow) count(c *cluster.Cluster, ms *runtime.MemStats) {
	runtime.ReadMemStats(ms)
	st := c.Server().Stats()
	*w = fleetWindow{mallocs: ms.Mallocs, tier: st.TierHits + st.Demotions, ran: counted.calls.Load()}
	for i := 0; i < c.Size(); i++ {
		run := c.Machine(i).Stats()
		w.remoteIns += run.VM.RemoteIns
		w.compressions += run.Comp.Compressions
	}
}

// steadyFleet warms an n-member fleet up and measures steadyTouches touches
// of every member.
func steadyFleet(t *testing.T, n int) fleetWindow {
	const (
		pages      = 96
		warmPasses = 8
		// Every member is warm long before this instant and waits for it, so
		// the measured touches of all of them start together.
		barrier = sim.Time(time.Hour)
	)
	srv := cluster.DefaultServerConfig()
	srv.TierBytes = 64 * 4096 // small enough that the tier demotes
	c, err := cluster.New(cluster.Config{
		Machines:       n,
		MemoryBytes:    32 * 4096,
		Link:           netdev.Ethernet10(),
		Server:         srv,
		Codec:          counted.Name(),
		Seed:           17,
		DonationFrames: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	// One actor runs at a time and the kernel's hand-offs order them, so the
	// members share these without locks.
	var before, after fleetWindow
	var ms runtime.MemStats
	entered, left := 0, 0
	late := false
	for i := 0; i < n; i++ {
		seed := c.SeedFor(i)
		c.Go(i, func(m *machine.Machine) {
			s := m.NewSegment("fleet", pages*4096)
			rng := rand.New(rand.NewSource(seed))
			buf := make([]byte, 4096)
			for p := int32(0); p < pages; p++ {
				rng.Read(buf)
				s.Write(int64(p)*4096, buf)
			}
			p := int32(0)
			touch := func() {
				s.Touch(p, true)
				p = (p + 1) % pages
			}
			for k := 0; k < warmPasses*pages; k++ {
				touch()
			}
			late = late || m.Clock.Now() >= barrier
			m.Clock.ChargeTo(sim.CauseIdle, barrier)
			if entered++; entered == 1 {
				before.count(c, &ms)
			}
			for k := 0; k < steadyTouches; k++ {
				touch()
			}
			if left++; left == n {
				after.count(c, &ms)
			}
		})
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	c.Run()
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	if late {
		t.Fatal("a member was still warming up at the barrier")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return fleetWindow{
		mallocs:   after.mallocs - before.mallocs,
		remoteIns: after.remoteIns - before.remoteIns,
		tier:      after.tier - before.tier,

		compressions: after.compressions - before.compressions,
		ran:          after.ran - before.ran,
	}
}

// countedCodec is the default codec counting its Compress calls, the twin of
// the one the machine package's rows register.
type countedCodec struct {
	compress.LZRW1
	calls atomic.Uint64
}

func (c *countedCodec) Name() string { return "counted-lzrw1" }

func (c *countedCodec) Compress(dst, src []byte) []byte {
	c.calls.Add(1)
	return c.LZRW1.Compress(dst, src)
}

var counted = new(countedCodec)

func init() { compress.Register(counted) }
