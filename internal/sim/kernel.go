package sim

import (
	"fmt"
	"sort"
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

// actorState is the kernel's bookkeeping for one attached clock.
type actorState struct {
	id     ActorID
	clock  *Clock
	body   func()    // bound program, consumed by the first resume
	resume chan Time // hand-off into a blocked Wait
	live   bool      // goroutine exists and is blocked in Wait
	done   bool      // body returned
	save   Time      // restored clock instant, adopted on Attach
}

// Kernel is a deterministic discrete-event scheduler that co-advances many
// Clocks on one shared time line.
//
// Machines become actors: each attaches its Clock to the kernel, and every
// Clock.Advance/AdvanceTo turns into a Wait — the actor blocks until the
// kernel's global time reaches the target instant, and meanwhile the actor
// that is globally earliest runs. Exactly one actor goroutine executes at any
// moment (the scheduler and the actors pass a baton over unbuffered
// channels), so execution order is a pure function of the event keys and the
// simulation is reproducible — and race-clean — at any GOMAXPROCS.
//
// The processes of one machine are the second kind of client: workload.Multi
// makes each member workload an actor of a kernel of its own, whose time line
// counts scheduling quanta rather than nanoseconds, so the event order is
// round-robin over the unfinished members. That kernel nests: inside a fleet
// actor, a member's references advance the machine's clock, and the member
// goroutine that holds the inner baton blocks in the outer kernel's Wait while
// the machine's own goroutine sits in the inner Run. Nothing in Wait depends
// on which goroutine calls it, only on the caller holding the baton. This is
// the one baton implementation in the tree; goroutines, channels and locks
// appear in this package and in internal/runner and nowhere else (cclint's
// kernelproto).
//
// A Clock that is never attached to a Kernel behaves exactly as before: a
// private free-running counter. Single-machine runs therefore stay
// byte-identical to the pre-kernel code.
type Kernel struct {
	kernelState
	// yield returns the baton to the scheduler: the yielding actor reports
	// whether its body returned (done) or it blocked in Wait. All actor
	// bookkeeping is written on the scheduler side of this hand-off, so
	// every field access is ordered by the channel.
	yield   chan yieldMsg
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
	actors map[ActorID]*actorState
	ids    []ActorID // sorted attach order view for deterministic snapshots
}

// yieldMsg is the baton an actor hands back to the scheduler.
type yieldMsg struct {
	id   ActorID
	done bool // body returned (vs blocked in Wait)
}

// NewKernel returns an empty kernel at time zero.
func NewKernel() *Kernel {
	return &Kernel{
		kernelState: kernelState{actors: make(map[ActorID]*actorState)},
		yield:       make(chan yieldMsg),
		current:     -1,
	}
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
		panic("sim: Attach of nil clock")
	}
	if id < 0 {
		panic(fmt.Sprintf("sim: actor id %d must be non-negative", id))
	}
	st, restored := k.actors[id]
	if restored && st.clock != nil {
		panic(fmt.Sprintf("sim: duplicate actor %d", id))
	}
	if !restored {
		st = &actorState{id: id, resume: make(chan Time)}
		k.actors[id] = st
		k.ids = append(k.ids, id)
		sort.Slice(k.ids, func(i, j int) bool { return k.ids[i] < k.ids[j] })
	} else {
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
	if st.live {
		panic(fmt.Sprintf("sim: Go on live actor %d", id))
	}
	st.body = fn
	st.done = false
	k.push(event{at: st.clock.now, id: id, kind: evResume})
}

// Bind installs fn as the program of actor id without scheduling a start
// event. It is the restore-side counterpart of Go: a kernel restored with
// pending resume events needs each waiting actor's continuation re-bound
// before Run, and the restored events themselves provide the wake-ups.
func (k *Kernel) Bind(id ActorID, fn func()) {
	st := k.state(id)
	if st.live {
		panic(fmt.Sprintf("sim: Bind on live actor %d", id))
	}
	st.body = fn
	st.done = false
}

// Schedule runs fn on the scheduler at instant at, attributed to actor id
// for tie-breaking. The callback runs outside any actor and must not call
// Wait (it has no goroutine to block); it may Schedule further events.
// Timer callbacks cannot be serialized, so a kernel with pending timers
// refuses to snapshot.
func (k *Kernel) Schedule(at Time, id ActorID, fn func(Time)) {
	if fn == nil {
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
// final kernel time.
func (k *Kernel) Run() Time {
	if k.running {
		panic("sim: Run re-entered")
	}
	k.running = true
	k.stopped = false
	defer func() { k.running = false }()
	for len(k.heap) > 0 && !k.stopped {
		ev := k.heap.pop()
		k.now = ev.at
		if ev.kind == evTimer {
			k.current = -1
			ev.fn(ev.at)
			continue
		}
		st := k.actors[ev.id]
		if st == nil {
			panic(fmt.Sprintf("sim: resume event for unknown actor %d", ev.id))
		}
		k.current = ev.id
		if st.live {
			st.resume <- ev.at
		} else {
			if st.body == nil || st.done {
				panic(fmt.Sprintf("sim: resume event for actor %d with no program", ev.id))
			}
			st.live = true
			body := st.body
			st.body = nil
			id := ev.id
			go func() {
				body()
				k.yield <- yieldMsg{id: id, done: true}
			}()
		}
		msg := <-k.yield
		if msg.done {
			fin := k.actors[msg.id]
			fin.live = false
			fin.done = true
		}
		k.current = -1
	}
	if k.stopped {
		// Paused mid-run: pending events stay on the heap and blocked
		// actors stay parked on their resume channels. A later Run picks
		// up exactly where this one left off; alternatively the kernel can
		// be snapshotted now and restored elsewhere.
		return k.now
	}
	for _, id := range k.ids {
		if st := k.actors[id]; st.live {
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
	k.yield <- yieldMsg{id: id}
	t := <-st.resume
	st.clock.now = t
	return t
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
	st := k.actors[id]
	if st == nil || st.clock == nil {
		panic(fmt.Sprintf("sim: actor %d not attached", id))
	}
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
