package obs

// Bus is the per-machine event channel: a bounded ring buffer of events with
// a per-class enable mask, plus the machine's metrics registry.
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
	ring    []Event
	start   int    // index of the oldest retained event
	n       int    // retained events
	dropped uint64 // events lost to ring wrap
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
	return &Bus{mask: opts.Classes, busState: busState{ring: make([]Event, 0, opts.RingSize)}}
}

// Enabled reports whether events of class c are recorded. It is the hot-path
// guard: probe sites call it before building an Event so a disabled bus does
// no argument construction.
func (b *Bus) Enabled(c Class) bool { return b != nil && b.mask&c != 0 }

// Emit records an event in the ring if its class is enabled. A full ring
// overwrites its oldest event and counts it in Dropped; Emit touches nothing
// else, so a count over Events covers only the retained events.
func (b *Bus) Emit(e Event) {
	if b == nil || b.mask&e.Class == 0 {
		return
	}
	if len(b.ring) < cap(b.ring) {
		b.ring = append(b.ring, e)
		b.n++
		return
	}
	// Ring full: overwrite the oldest slot.
	b.ring[b.start] = e
	b.start++
	if b.start == len(b.ring) {
		b.start = 0
	}
	b.dropped++
}

// Events returns the retained events in emission order (a copy).
func (b *Bus) Events() []Event {
	if b == nil || b.n == 0 {
		return nil
	}
	out := make([]Event, 0, b.n)
	out = append(out, b.ring[b.start:]...)
	out = append(out, b.ring[:b.start]...)
	return out
}

// Len reports the number of retained events.
func (b *Bus) Len() int {
	if b == nil {
		return 0
	}
	return b.n
}

// Dropped reports how many events were lost to ring wrap.
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
