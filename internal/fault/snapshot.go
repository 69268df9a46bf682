package fault

import (
	"fmt"
	"math/rand"

	"compcache/internal/snap"
)

// maxReplayDraws bounds the draw count a snapshot may claim: restore replays
// that many draws one by one, so a forged count must not buy an unbounded
// loop. A real run makes a handful of draws per device operation.
const maxReplayDraws = 1 << 30

// Snap walks the injector's replay state: its counters, the crash-point
// state, and — crucially — the number of raw PRNG draws consumed so far. The
// generator itself is not stored; decoding re-synchronizes it by drawing from
// a fresh source seeded with the configured seed until the stored count is
// reached, which is exact because countingSource counts at the Source level
// where rand.Rand's rejection sampling bottoms out.
func (in *Injector) Snap(c *snap.Codec) {
	c.Section("fault.injector")
	c.U64(&in.src.n)
	c.U64(&in.st.InjectedReadErrors)
	c.U64(&in.st.InjectedWriteErrors)
	c.U64(&in.st.InjectedCorruptions)
	c.U64(&in.st.InjectedSpikes)
	c.U64(&in.st.InjectedCrashes)
	c.U64(&in.writeSeq)
	// An 8-byte slot no state fills: written as zero, and a snapshot with
	// anything else there is refused.
	snap.Const(c, c.I64, 0, "fault: scheduled crash instant")
	c.Bool(&in.crashed)
	snap.Int64(c, &in.crashTime)
	c.Check(func() error {
		if in.src.n > maxReplayDraws {
			return fmt.Errorf("fault: snapshot claims %d PRNG draws (limit %d)", in.src.n, maxReplayDraws)
		}
		in.src.src = rand.NewSource(in.cfg.Seed)
		for i := uint64(0); i < in.src.n; i++ {
			in.src.src.Int63()
		}
		return nil
	})
}
