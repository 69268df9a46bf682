package sim

import (
	"sort"

	"compcache/internal/snap"
)

// Snap walks the clock's replay state: the current instant.
func (c *Clock) Snap(sc *snap.Codec) {
	sc.Section("sim.clock")
	snap.Int64(sc, &c.now)
}

// Snap walks the kernel's replay state: global time, the sequence counter,
// every actor's clock instant, and the pending resume events in dispatch
// order with their original sequence numbers, so a restored kernel replays
// the exact same schedule.
//
// Encoding needs a paused kernel (not inside Run — use Stop from a timer
// callback to pause mid-simulation) that holds no pending timers: timer
// callbacks are closures and cannot be serialized. Decoding needs an empty
// kernel; each restored actor must then be re-attached with Attach (its clock
// adopts the restored instant) and, if it had a pending resume event,
// re-armed with Bind so the wake-up has a continuation to start.
func (k *Kernel) Snap(c *snap.Codec) {
	if k.running {
		c.Failf("sim: kernel snapshot or restore while running (pause with Stop first)")
		return
	}
	if c.Decoding() && len(k.actors)+len(k.heap) != 0 {
		c.Failf("sim: kernel restore into non-empty kernel")
		return
	}
	evs := make([]event, len(k.heap))
	copy(evs, k.heap)
	sort.Slice(evs, func(i, j int) bool { return less(evs[i].at, evs[i].id, evs[i].seq, evs[j]) })
	for _, e := range evs {
		if e.kind == evTimer {
			c.Failf("sim: kernel snapshot with pending timer callback")
			return
		}
	}
	c.Section("sim.kernel")
	snap.Int64(c, &k.now)
	c.U64(&k.seq)
	c.Mark(&k.actors, &k.heap)
	var ids []ActorID
	for id, st := range k.actors {
		if st != nil {
			ids = append(ids, ActorID(id))
		}
	}
	snap.Slice(c, &ids, maxActors, "kernel actors", func(id *ActorID) {
		snap.Int32(c, id)
		st := k.lookup(*id)
		if c.Decoding() {
			if st != nil || *id < 0 || *id >= maxActors {
				c.Failf("sim: actor %d in kernel snapshot repeats or lies outside [0, %d)", *id, maxActors)
				return
			}
			st = k.add(*id)
		} else if st.clock != nil {
			st.save = st.clock.now // save is read only by Attach on a restored actor
		}
		snap.Int64(c, &st.save)
	})
	snap.Slice(c, &evs, 1<<24, "pending kernel events", func(e *event) {
		snap.Int64(c, &e.at)
		snap.Int32(c, &e.id)
		c.U64(&e.seq)
		e.kind = evResume
	})
	c.Check(func() error {
		// The events were written in dispatch order, which is a valid heap
		// layout already, but establish the invariant explicitly.
		k.heap = evs
		k.heap.init()
		return nil
	})
}
