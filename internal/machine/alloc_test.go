package machine

import (
	"math/rand"
	"testing"
)

// The compression cache's value proposition is that a compressed-memory hit
// costs microseconds of simulated decompression, not milliseconds of disk.
// On the host side that only holds if the steady-state PageOut/PageIn cycle
// stays off the garbage collector: the machine compresses into a per-machine
// scratch buffer, core.Cache copies into recycled slabs and recycles its
// entry and frame bookkeeping, and the codecs pool their own scratch. These
// tests pin that property with testing.AllocsPerRun so a regression shows up
// as a test failure instead of a profile.

// steadyMachine builds a CC machine whose working set does not fit in RAM
// but compresses well enough to live entirely in the compression cache, then
// cycles through it until compression-cache traffic is the steady state.
// With a tier attached every fourth page is incompressible instead, so the
// cycle also sends pages down the chain and faults them back from the tier.
func steadyMachine(t *testing.T, writes bool, tier *fakeTier) (*Machine, *Space) {
	t.Helper()
	var opts []Option
	if tier != nil {
		opts = append(opts, WithRemote(tier))
	}
	m := newMachine(t, Default(mb).WithCC(), opts...)
	s := m.NewSegment("heap", 400*4096) // 400 pages vs 256 frames
	fillCompressible(s)
	if tier != nil {
		rng := rand.New(rand.NewSource(3))
		page := make([]byte, 4096)
		for p := int32(0); p < s.Pages(); p += 4 {
			rng.Read(page)
			s.Write(int64(p)*4096, page)
		}
	}
	// Freelists and slabs take a few passes to reach their working size —
	// longer when the cycle mixes cache and tier traffic.
	for pass := 0; pass < 8; pass++ {
		for p := int32(0); p < s.Pages(); p++ {
			s.Touch(p, writes)
		}
	}
	return m, s
}

// steadyCycle asserts that cycling through the working set allocates nothing
// per touch, on the local chain and with a remote tier in front of it.
func steadyCycle(t *testing.T, writes bool) {
	for _, tier := range []*fakeTier{nil, newFakeTier()} {
		name := "local"
		if tier != nil {
			name = "tier"
		}
		t.Run(name, func(t *testing.T) {
			m, s := steadyMachine(t, writes, tier)
			p := int32(0)
			n := testing.AllocsPerRun(2000, func() {
				s.Touch(p, writes)
				p = (p + 1) % s.Pages()
			})
			if n != 0 {
				t.Errorf("steady-state cycle allocates %v times per touch", n)
			}
			if tier != nil && (m.Stats().VM.RemoteIns == 0 || len(tier.pages) == 0) {
				t.Error("the cycle never reached the tier")
			}
			if err := m.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSteadyStateReadCycleZeroAllocs(t *testing.T)    { steadyCycle(t, false) }
func TestSteadyStateDirtyRewriteZeroAllocs(t *testing.T) { steadyCycle(t, true) }
