package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"compcache/internal/snap"
)

// runSchedule drives nActors actors over the given per-actor absolute-time
// schedules and returns the dispatch log ("actor@time" per completed step).
// goOrder controls the order in which actors are armed with Go, which must
// not affect the schedule.
func runSchedule(t *testing.T, schedules [][]Time, goOrder []int) []string {
	t.Helper()
	k := NewKernel()
	clocks := make([]*Clock, len(schedules))
	for id := range schedules {
		clocks[id] = k.NewClock(ActorID(id))
	}
	var log []string
	for _, id := range goOrder {
		id := id
		k.Go(ActorID(id), func() {
			for _, at := range schedules[id] {
				clocks[id].AdvanceTo(at)
				log = append(log, fmt.Sprintf("%d@%v", id, clocks[id].Now()))
			}
		})
	}
	k.Run()
	return log
}

// TestKernelTieBreakDeterminism checks the heap's (time, actorID, seq) key:
// schedules engineered so many actors land on equal timestamps must dispatch
// in actor-ID order at each instant, identically across repeated runs and
// independently of the order actors were armed in.
func TestKernelTieBreakDeterminism(t *testing.T) {
	const nActors = 7
	rng := rand.New(rand.NewSource(42))
	schedules := make([][]Time, nActors)
	for id := range schedules {
		// Coarse timestamps (multiples of 10) force frequent exact ties
		// between different actors.
		at := Time(0)
		for s := 0; s < 50; s++ {
			at += Time(10 * (1 + rng.Intn(3)))
			schedules[id] = append(schedules[id], at)
		}
	}
	forward := make([]int, nActors)
	reversed := make([]int, nActors)
	for i := range forward {
		forward[i] = i
		reversed[i] = nActors - 1 - i
	}

	ref := runSchedule(t, schedules, forward)
	if got := runSchedule(t, schedules, forward); !reflect.DeepEqual(got, ref) {
		t.Fatalf("repeated run diverged:\n%v\nvs\n%v", got, ref)
	}
	if got := runSchedule(t, schedules, reversed); !reflect.DeepEqual(got, ref) {
		t.Fatalf("Go-order-reversed run diverged:\n%v\nvs\n%v", got, ref)
	}

	// Spot-check the tie rule itself: within one timestamp, dispatch order
	// is ascending actor ID.
	byTime := map[string][]string{}
	var times []string
	for _, entry := range ref {
		var id int
		var at string
		fmt.Sscanf(entry, "%d@%s", &id, &at)
		if len(byTime[at]) == 0 {
			times = append(times, at)
		}
		byTime[at] = append(byTime[at], entry)
	}
	for _, at := range times {
		group := byTime[at]
		prev := -1
		for _, entry := range group {
			var id int
			var rest string
			fmt.Sscanf(entry, "%d@%s", &id, &rest)
			if id <= prev {
				t.Fatalf("tie at %s dispatched out of actor-ID order: %v", at, group)
			}
			prev = id
		}
	}
}

// TestKernelEquivalentToFreeClock checks that a single kernel-attached actor
// observes exactly the instants a plain free-running clock would.
func TestKernelEquivalentToFreeClock(t *testing.T) {
	free := &Clock{}
	var want []Time
	for i := 1; i <= 20; i++ {
		want = append(want, free.Advance(Duration(i*137)))
	}

	k := NewKernel()
	c := k.NewClock(3)
	var got []Time
	k.Go(3, func() {
		for i := 1; i <= 20; i++ {
			got = append(got, c.Advance(Duration(i*137)))
		}
	})
	k.Run()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("kernel-attached clock diverged from free clock:\n%v\nvs\n%v", got, want)
	}
	if k.Now() != free.Now() {
		t.Fatalf("kernel time %v != free clock time %v", k.Now(), free.Now())
	}
}

// TestKernelSnapshotRestoreMidRun pauses a multi-actor simulation at a timer,
// snapshots the kernel with resume events still pending, restores it into a
// fresh kernel with re-bound continuations, and requires the restored run to
// produce byte-for-byte the same remaining dispatch log as the original run
// simply continuing in place.
func TestKernelSnapshotRestoreMidRun(t *testing.T) {
	const nActors = 5
	rng := rand.New(rand.NewSource(7))
	schedules := make([][]Time, nActors)
	for id := range schedules {
		at := Time(0)
		for s := 0; s < 40; s++ {
			at += Time(5 * (1 + rng.Intn(4)))
			schedules[id] = append(schedules[id], at)
		}
	}

	// body returns the actor program starting at step pc, logging into log
	// and recording completed steps in pcs.
	build := func(clocks []*Clock, pcs []int, log *[]string) func(id, pc int) func() {
		return func(id, pc int) func() {
			return func() {
				for s := pc; s < len(schedules[id]); s++ {
					clocks[id].AdvanceTo(schedules[id][s])
					*log = append(*log, fmt.Sprintf("%d@%v", id, clocks[id].Now()))
					pcs[id] = s + 1
				}
			}
		}
	}

	k1 := NewKernel()
	clocks1 := make([]*Clock, nActors)
	pcs1 := make([]int, nActors)
	var log1 []string
	body1 := build(clocks1, pcs1, &log1)
	for id := 0; id < nActors; id++ {
		clocks1[id] = k1.NewClock(ActorID(id))
		k1.Go(ActorID(id), body1(id, 0))
	}
	// Pause roughly mid-run. The timer uses a dedicated actor ID above the
	// real ones so its tie-break slot is deterministic too.
	const pauseAt = Time(200)
	k1.Schedule(pauseAt, ActorID(nActors), func(Time) { k1.Stop() })
	k1.Run()
	if k1.Pending() == 0 {
		t.Fatalf("pause produced no pending events; schedule too short")
	}

	w := snap.NewWriter()
	k1.Snap(snap.Encoder(w))
	img, err := w.Bytes()
	if err != nil {
		t.Fatalf("snapshot bytes: %v", err)
	}
	pausePCs := append([]int(nil), pcs1...)
	prefixLen := len(log1)

	// Original kernel continues in place.
	k1.Run()
	wantTail := append([]string(nil), log1[prefixLen:]...)

	// Restored kernel replays the rest from the snapshot.
	k2 := NewKernel()
	r, err := snap.NewReader(img)
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	k2.Snap(snap.Decoder(r))
	if err := r.Close(); err != nil {
		t.Fatalf("restore: %v", err)
	}
	clocks2 := make([]*Clock, nActors)
	pcs2 := append([]int(nil), pausePCs...)
	var log2 []string
	body2 := build(clocks2, pcs2, &log2)
	for id := 0; id < nActors; id++ {
		clocks2[id] = &Clock{}
		k2.Attach(clocks2[id], ActorID(id))
		if pausePCs[id] < len(schedules[id]) {
			k2.Bind(ActorID(id), body2(id, pausePCs[id]))
		}
	}
	k2.Run()

	if !reflect.DeepEqual(log2, wantTail) {
		t.Fatalf("restored run diverged from continued run:\nrestored: %v\ncontinued: %v", log2, wantTail)
	}
	if k2.Now() != k1.Now() {
		t.Fatalf("restored kernel finished at %v, original at %v", k2.Now(), k1.Now())
	}
	for id := range clocks2 {
		if clocks2[id].Now() != clocks1[id].Now() {
			t.Fatalf("actor %d clock: restored %v vs original %v", id, clocks2[id].Now(), clocks1[id].Now())
		}
	}
}

// TestKernelSnapshotRefusesPendingTimer: timer callbacks are closures and
// must block snapshotting.
func TestKernelSnapshotRefusesPendingTimer(t *testing.T) {
	k := NewKernel()
	k.NewClock(0)
	k.Schedule(100, 0, func(Time) {})
	c := snap.Encoder(snap.NewWriter())
	if k.Snap(c); c.Err() == nil {
		t.Fatal("snapshot allowed a pending timer callback")
	}
}

// TestKernelWaitBackwardPanics: virtual time never runs backward, attached
// or not.
func TestKernelWaitBackwardPanics(t *testing.T) {
	k := NewKernel()
	c := k.NewClock(0)
	c.now = 100
	defer func() {
		if recover() == nil {
			t.Fatal("Wait backward did not panic")
		}
	}()
	k.Wait(0, 50)
	_ = c
}

// TestKernelNestsInsideActor runs a kernel inside an actor of another, the
// way workload.Multi runs inside a fleet machine: two inner actors take turns
// (each step ends on an advance of its own inner clock) and every step first
// advances the host actor's outer clock, beside a second outer actor. Each
// outer advance suspends the host from inside an inner actor, so the log
// must be the merge of the host's steps and the sibling's by (time, outer
// actor), with the inner actors alternating within the host's share.
func TestKernelNestsInsideActor(t *testing.T) {
	outer := NewKernel()
	host, sibling := outer.NewClock(0), outer.NewClock(1)
	var log []string
	outer.Go(0, func() {
		inner := NewKernel()
		for id := ActorID(0); id < 2; id++ {
			turn := inner.NewClock(id)
			inner.Go(id, func() {
				for s := 0; s < 3; s++ {
					host.Advance(10)
					log = append(log, fmt.Sprintf("m%d@%v", id, host.Now()))
					turn.Advance(1)
				}
			})
		}
		inner.Run()
		log = append(log, fmt.Sprintf("inner done@%v", host.Now()))
	})
	outer.Go(1, func() {
		for s := 0; s < 4; s++ {
			sibling.Advance(15)
			log = append(log, fmt.Sprintf("s@%v", sibling.Now()))
		}
	})
	outer.Run()
	want := []string{
		"m0@10ns", "s@15ns", "m1@20ns", "m0@30ns", "s@30ns", "m1@40ns",
		"s@45ns", "m0@50ns", "m1@60ns", "inner done@60ns", "s@60ns",
	}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("nested dispatch log:\n%v\nwant\n%v", log, want)
	}
	if outer.Now() != 60 {
		t.Fatalf("outer kernel finished at %v, want 60ns", outer.Now())
	}
}

// TestKernelActorPanicReachesRun: a panic in an actor body — here one that
// was suspended and resumed first — is recovered by Run's caller with the
// value the body panicked with.
func TestKernelActorPanicReachesRun(t *testing.T) {
	k := NewKernel()
	c := k.NewClock(0)
	other := k.NewClock(1)
	boom := fmt.Errorf("boom")
	k.Go(0, func() {
		c.Advance(10)
		panic(boom)
	})
	k.Go(1, func() { other.Advance(5) })
	defer func() {
		if got := recover(); got != boom {
			t.Fatalf("Run's caller recovered %v, want the body's %v", got, boom)
		}
		if k.Now() != 10 {
			t.Fatalf("kernel at %v when the body panicked, want 10ns", k.Now())
		}
	}()
	k.Run()
	t.Fatal("Run returned after an actor body panicked")
}
