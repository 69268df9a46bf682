package obs

// Bus is the per-machine event channel: a bounded window of events, kept
// packed (eventLog), with a per-class enable mask, plus the machine's
// metrics registry.
//
// A nil *Bus is valid — every method is nil-safe and a disabled probe site
// costs one nil test plus (when non-nil) one mask test, which is the whole
// overhead budget of an untraced run. Like the clock, a Bus belongs to
// exactly one single-threaded simulated machine and is not safe for
// concurrent use; cross-machine aggregation happens by index order in the
// experiment runner, never by sharing a bus.
type Bus struct {
	busState
	mask Class
}

// busState is the bus's replay state: everything a snapshot carries.
type busState struct {
	log     eventLog
	dropped uint64 // events dropped from the full window
	reg     Registry
}

// NewBus creates a bus with the given options.
func NewBus(opts Options) *Bus {
	if opts.Classes == 0 {
		opts.Classes = ClassAll
	}
	if opts.RingSize <= 0 {
		opts.RingSize = DefaultRingSize
	}
	return &Bus{mask: opts.Classes, busState: busState{log: eventLog{max: opts.RingSize}}}
}

// Enabled reports whether events of class c are recorded. It is the hot-path
// guard: probe sites call it before building an Event so a disabled bus does
// no argument construction.
func (b *Bus) Enabled(c Class) bool { return b != nil && b.mask&c != 0 }

// Emit records an event if its class is enabled. A full window drops its
// oldest event and counts it in Dropped; Emit touches nothing else, so a
// count over Events covers only the retained events. Only the guard is
// inline: the encoding is record's, out of line.
func (b *Bus) Emit(e Event) {
	if b == nil || b.mask&e.Class == 0 {
		return
	}
	b.record(&e)
}

// record appends e to the log, dropping the oldest event from a full one.
// Inlined, it would push Emit past the inlining budget.
//
//go:noinline
func (b *Bus) record(e *Event) {
	if b.log.n == b.log.max {
		b.log.drop()
		b.dropped++
	}
	b.log.push(e)
}

// Events returns the retained events in emission order (a copy).
func (b *Bus) Events() []Event {
	if b == nil || b.log.n == 0 {
		return nil
	}
	out := make([]Event, 0, b.log.n)
	for e := range b.log.all() {
		out = append(out, e)
	}
	return out
}

// Len reports the number of retained events.
func (b *Bus) Len() int {
	if b == nil {
		return 0
	}
	return b.log.n
}

// Dropped reports how many events the full window dropped.
func (b *Bus) Dropped() uint64 {
	if b == nil {
		return 0
	}
	return b.dropped
}

// Mask reports the enable mask.
func (b *Bus) Mask() Class {
	if b == nil {
		return 0
	}
	return b.mask
}

// Registry returns the bus's metrics registry, or nil for a nil bus.
func (b *Bus) Registry() *Registry {
	if b == nil {
		return nil
	}
	return &b.reg
}

// Counter registers (or finds) a counter; nil for a nil bus, so subsystems
// can cache probe handles unconditionally at wiring time.
func (b *Bus) Counter(name string) *Counter {
	if b == nil {
		return nil
	}
	return b.reg.Counter(name)
}

// Gauge registers (or finds) a gauge; nil for a nil bus.
func (b *Bus) Gauge(name string) *Gauge {
	if b == nil {
		return nil
	}
	return b.reg.Gauge(name)
}

// Histogram registers (or finds) a virtual-latency histogram; nil for a nil
// bus.
func (b *Bus) Histogram(name string) *Histogram {
	if b == nil {
		return nil
	}
	return b.reg.Histogram(name)
}

// Snapshot captures the registry's current metrics in deterministic (sorted)
// order; nil for a nil bus.
func (b *Bus) Snapshot() *Snapshot {
	if b == nil {
		return nil
	}
	return b.reg.Snapshot()
}
