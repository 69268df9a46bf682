package sim

import (
	"fmt"
	"iter"
)

// ActorID names one actor (one machine, one device owner) on a Kernel. IDs
// are small dense integers chosen by the caller; they are the second key of
// the event ordering, so the caller's ID assignment is part of the
// deterministic schedule.
type ActorID int32

// evKind distinguishes the two event flavours on the kernel heap.
type evKind uint8

const (
	// evResume unblocks an actor waiting in Kernel.Wait (or starts an actor
	// registered with Go that has not run yet).
	evResume evKind = iota
	// evTimer runs a callback on the scheduler at its timestamp. Timer
	// callbacks must not call Wait; they run outside any actor.
	evTimer
)

// event is one pending entry on the kernel's time line.
type event struct {
	at   Time
	id   ActorID
	seq  uint64
	kind evKind
	fn   func(Time) // evTimer only
}

// eventHeap is a binary min-heap ordering events by (time, actorID, seq):
// time first, then actor ID, then insertion sequence. The triple is totally
// ordered and depends only on the sequence of Kernel calls, never on map
// iteration or goroutine scheduling, so ties at equal timestamps resolve
// identically on every run. The heap is hand-rolled rather than built on
// container/heap because Wait sits on the paging hot path: the stdlib API
// boxes every event into an interface, and this one stays allocation-free
// once the backing array has warmed up.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	a, b := h[i], h[j]
	if a.at != b.at {
		return a.at < b.at
	}
	if a.id != b.id {
		return a.id < b.id
	}
	return a.seq < b.seq
}

// up restores the heap invariant after an element lands at index i.
func (h eventHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	s := *h
	n := len(s) - 1
	top := s[0]
	s[0] = s[n]
	s[n] = event{} // drop the callback reference for the collector
	*h = s[:n]
	h.down(0)
	return top
}

func (h eventHeap) down(i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && h.less(l, min) {
			min = l
		}
		if r < n && h.less(r, min) {
			min = r
		}
		if min == i {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

// init establishes the heap invariant over arbitrary contents.
func (h eventHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h eventHeap) peek() (event, bool) {
	if len(h) == 0 {
		return event{}, false
	}
	return h[0], true
}

// maxActors bounds actor IDs: the kernel indexes its actors by ID, so an ID is
// a slot in a dense table, and a snapshot cannot name one past it.
const maxActors = 1 << 16

// actorState is the kernel's bookkeeping for one attached clock.
type actorState struct {
	clock *Clock
	body  func() // bound program, consumed by the first resume
	// next resumes the coroutine running the body until it yields from Wait
	// or, reporting !ok, returns; yield is the coroutine's way back into
	// Run. Both are nil unless the actor is live.
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	save  Time // restored clock instant, adopted on Attach
}

// start makes the coroutine that runs the bound body.
func (st *actorState) start() {
	body := st.body
	st.body = nil
	st.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		st.yield = yield
		body()
	})
}

// Kernel is a deterministic discrete-event scheduler that co-advances many
// Clocks on one shared time line.
//
// Machines become actors: each attaches its Clock to the kernel, and every
// Clock.Advance/AdvanceTo turns into a Wait — the actor blocks until the
// kernel's global time reaches the target instant, and meanwhile the actor
// that is globally earliest runs. Each actor body runs as a coroutine
// (iter.Pull): Run resumes the actor an event names and gets control back
// when the actor yields from Wait or returns, so exactly one actor executes
// at any moment, execution order is a pure function of the event keys, and
// the simulation is reproducible — and race-clean — at any GOMAXPROCS. A
// hand-off is a coroutine switch, which passes through no scheduler queue.
// A panic in an actor body surfaces from Run.
//
// The processes of one machine are the second kind of client: workload.Multi
// makes each member workload an actor of a kernel of its own, whose time line
// counts scheduling quanta rather than nanoseconds, so the event order is
// round-robin over the unfinished members. That kernel nests: inside a fleet
// actor, a member's references advance the machine's clock, so the member's
// coroutine calls the fleet actor's yield and is what the outer Run resumes
// at that actor's next event, while the machine's own coroutine sits in the
// inner Run. Nothing in Wait depends on which coroutine calls it, only on the
// caller holding the baton; iter.Pull does not document yielding from another
// coroutine, so TestKernelNestsInsideActor pins it. This is the one baton
// implementation in the tree; goroutines, channels and locks appear in this
// package and in internal/runner and nowhere else (cclint's kernelproto).
//
// A Clock that is never attached to a Kernel behaves exactly as before: a
// private free-running counter. Single-machine runs therefore stay
// byte-identical to the pre-kernel code.
type Kernel struct {
	kernelState
	running bool
	stopped bool
	current ActorID
}

// kernelState is the kernel's replay state: everything a snapshot carries.
// The fields of Kernel proper are spent at a snapshot boundary — snapshots
// happen outside Run, where no actor holds the baton.
type kernelState struct {
	heap   eventHeap
	seq    uint64
	now    Time
	actors []*actorState // indexed by ActorID; nil where none is attached
}

// NewKernel returns an empty kernel at time zero.
func NewKernel() *Kernel {
	return &Kernel{current: -1}
}

// Now reports the kernel's global virtual time: the timestamp of the most
// recently dispatched event.
func (k *Kernel) Now() Time { return k.now }

// Pending reports the number of events waiting on the heap.
func (k *Kernel) Pending() int { return len(k.heap) }

// Attach registers clock c as actor id on the kernel. From then on the
// clock's Advance/AdvanceTo are kernel-mediated waits. If the kernel holds
// restored state for id (see Snap), the clock adopts the restored
// instant; otherwise the actor starts at the clock's current time. Attaching
// a duplicate id or a nil clock panics.
func (k *Kernel) Attach(c *Clock, id ActorID) {
	if c == nil {
		// Invariant: callers attach a clock they own; a nil one has no
		// time to wait on.
		panic("sim: Attach of nil clock")
	}
	if id < 0 || id >= maxActors {
		// Invariant: callers number actors from 0 below maxActors, the
		// size of the kernel's actor table.
		panic(fmt.Sprintf("sim: actor id %d outside [0, %d)", id, maxActors))
	}
	st := k.lookup(id)
	switch {
	case st == nil:
		st = k.add(id)
	case st.clock != nil:
		// Invariant: each actor id is attached once; a second clock on it
		// would split one actor's time in two.
		panic(fmt.Sprintf("sim: duplicate actor %d", id))
	default:
		// Restored actor: the snapshot recorded where its clock stood.
		c.now = st.save
	}
	st.clock = c
	c.kernel = k
	c.actor = id
}

// NewClock attaches a fresh clock as actor id and returns it.
func (k *Kernel) NewClock(id ActorID) *Clock {
	c := &Clock{}
	k.Attach(c, id)
	return c
}

// Go binds fn as the program of actor id and schedules its start at the
// actor's current clock time. The actor must be attached and idle (never
// started, finished a previous program, or freshly restored); binding over a
// live actor panics. An actor can be re-armed with Go once its previous body
// returns, which is how multi-phase runs reuse one kernel.
func (k *Kernel) Go(id ActorID, fn func()) {
	st := k.state(id)
	if st.next != nil {
		// Invariant: callers re-arm an actor with Go only once its
		// previous program has returned.
		panic(fmt.Sprintf("sim: Go on live actor %d", id))
	}
	st.body = fn
	k.push(event{at: st.clock.now, id: id, kind: evResume})
}

// Bind installs fn as the program of actor id without scheduling a start
// event. It is the restore-side counterpart of Go: a kernel restored with
// pending resume events needs each waiting actor's continuation re-bound
// before Run, and the restored events themselves provide the wake-ups.
func (k *Kernel) Bind(id ActorID, fn func()) {
	st := k.state(id)
	if st.next != nil {
		// Invariant: callers bind a program only to an idle actor, as a
		// restore leaves every actor.
		panic(fmt.Sprintf("sim: Bind on live actor %d", id))
	}
	st.body = fn
}

// Schedule runs fn on the scheduler at instant at, attributed to actor id
// for tie-breaking. The callback runs outside any actor and must not call
// Wait (it has no coroutine to suspend); it may Schedule further events.
// Timer callbacks cannot be serialized, so a kernel with pending timers
// refuses to snapshot.
func (k *Kernel) Schedule(at Time, id ActorID, fn func(Time)) {
	if fn == nil {
		// Invariant: callers schedule a callback to run; Run would call a
		// nil one when its instant came.
		panic("sim: Schedule of nil callback")
	}
	if at < k.now {
		at = k.now
	}
	k.push(event{at: at, id: id, kind: evTimer, fn: fn})
}

// Run dispatches events in (time, actorID, seq) order until the heap is
// empty and every started actor has either returned or is blocked with no
// wake-up pending (which would be a deadlock and panics). Run returns the
// final kernel time. A panic in an actor body propagates out of Run with its
// original value.
func (k *Kernel) Run() Time {
	if k.running {
		// Invariant: Run is called from outside the kernel, never from an
		// actor or a timer callback it dispatches.
		panic("sim: Run re-entered")
	}
	k.running = true
	k.stopped = false
	defer func() { k.running = false }()
	for len(k.heap) > 0 && !k.stopped {
		ev := k.heap.pop()
		k.now = ev.at
		if ev.kind == evTimer {
			ev.fn(ev.at)
			continue
		}
		st := k.lookup(ev.id)
		if st == nil {
			// Invariant: only Go, Wait and a restore push resume events,
			// each for an attached actor.
			panic(fmt.Sprintf("sim: resume event for unknown actor %d", ev.id))
		}
		if st.next == nil {
			if st.body == nil {
				// Invariant: a restored kernel's waiting actors are
				// re-bound (Bind) before Run.
				panic(fmt.Sprintf("sim: resume event for actor %d with no program", ev.id))
			}
			st.start()
		}
		k.current = ev.id
		if _, ok := st.next(); !ok {
			st.next, st.yield = nil, nil
		}
		k.current = -1
	}
	if k.stopped {
		// Paused mid-run: pending events stay on the heap and blocked
		// actors stay suspended in their coroutines. A later Run picks up
		// exactly where this one left off; alternatively the kernel can be
		// snapshotted now and restored elsewhere.
		return k.now
	}
	for id, st := range k.actors {
		if st != nil && st.next != nil {
			// Invariant: a live actor always has a resume event pending
			// (Wait pushes before yielding), so an empty heap with a live
			// actor means the kernel lost an event.
			panic(fmt.Sprintf("sim: deadlock — actor %d blocked with empty heap", id))
		}
	}
	return k.now
}

// Stop asks Run to return after the event currently being dispatched. It is
// meant to be called from a timer callback (see Schedule) to pause the
// simulation at a chosen instant — for a mid-run snapshot — with every
// pending event preserved on the heap. Run can simply be called again to
// resume in place.
func (k *Kernel) Stop() { k.stopped = true }

// Wait blocks actor id until global time reaches until, running other actors
// meanwhile, and returns the (unchanged) target instant. Outside Run the
// clock simply jumps — construction-time charges accrue before the kernel
// starts dispatching. An attached clock's Advance, AdvanceTo, Charge and
// ChargeTo each make one Wait when they move it; a charge books the difference
// between the clock's readings around that, so the ledger needs nothing from
// the kernel.
func (k *Kernel) Wait(id ActorID, until Time) Time {
	st := k.state(id)
	if until < st.clock.now {
		// Invariant: callers wait forward; virtual time never runs back.
		panic(fmt.Sprintf("sim: Wait backward from %v to %v", st.clock.now, until))
	}
	if !k.running {
		st.clock.now = until
		if until > k.now {
			k.now = until
		}
		return until
	}
	if k.current != id {
		// Invariant: during Run only the actor being dispatched waits, on
		// its own clock.
		panic(fmt.Sprintf("sim: Wait by actor %d while actor %d holds the baton", id, k.current))
	}
	// Fast path: if this actor would still be the globally earliest event,
	// advance in place without a context switch. The prospective key uses
	// the next sequence number, so an equal-time event already on the heap
	// (necessarily with a smaller seq) still wins, exactly as it would on
	// the slow path.
	if top, ok := k.heap.peek(); !ok || less(until, id, k.seq, top) {
		st.clock.now = until
		k.now = until
		return until
	}
	k.push(event{at: until, id: id, kind: evResume})
	st.yield(struct{}{})
	// Run set the kernel's time to the resume event's before resuming.
	st.clock.now = k.now
	return k.now
}

// less reports whether the prospective key (at, id, seq) orders before event e.
func less(at Time, id ActorID, seq uint64, e event) bool {
	if at != e.at {
		return at < e.at
	}
	if id != e.id {
		return id < e.id
	}
	return seq < e.seq
}

// state looks up an attached actor or panics.
func (k *Kernel) state(id ActorID) *actorState {
	if st := k.lookup(id); st != nil && st.clock != nil {
		return st
	}
	// Invariant: callers name an actor they attached (Attach, NewClock).
	panic(fmt.Sprintf("sim: actor %d not attached", id))
}

// lookup returns actor id's slot, or nil if it has none.
func (k *Kernel) lookup(id ActorID) *actorState {
	if uint(id) < uint(len(k.actors)) {
		return k.actors[id]
	}
	return nil
}

// add gives actor id a slot, growing the table to reach it.
func (k *Kernel) add(id ActorID) *actorState {
	if n := int(id) + 1; n > len(k.actors) {
		k.actors = append(k.actors, make([]*actorState, n-len(k.actors))...)
	}
	st := &actorState{}
	k.actors[id] = st
	return st
}

// push assigns the next sequence number and adds e to the heap. The append
// targets the kernel's own backing array, so it amortizes to zero
// allocations once the heap has warmed up to its steady-state depth.
func (k *Kernel) push(e event) {
	e.seq = k.seq
	k.seq++
	k.heap = append(k.heap, e)
	k.heap.up(len(k.heap) - 1)
}
