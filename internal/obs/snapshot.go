package obs

import (
	"sort"

	"compcache/internal/snap"
)

// Snap walks the bus's replay state: the retained events (oldest first), the
// drop counter, and every registered metric by name. The enable mask comes
// from the configuration and is stored only to be verified. A nil bus
// carries a presence flag and nothing else.
func (b *Bus) Snap(c *snap.Codec) {
	c.Section("obs.bus")
	snap.Const(c, c.Bool, b != nil, "obs: event bus attached")
	if b == nil {
		return
	}
	snap.Const(c, c.U32, uint32(b.mask), "obs: class mask")
	c.Mark(&b.ring, &b.start, &b.n)
	events := b.Events()
	snap.Slice(c, &events, cap(b.ring), "retained events", func(e *Event) {
		snap.Int64(c, &e.T)
		snap.Uint32(c, &e.Class)
		snap.Byte(c, &e.Sub)
		c.I32(&e.Seg)
		c.I32(&e.Page)
		c.I64(&e.Bytes)
		snap.Int64(c, &e.Dur)
		c.I64(&e.Aux)
	})
	if c.Decoding() {
		b.ring = append(b.ring[:0], events...)
		b.start, b.n = 0, len(events)
	}
	c.U64(&b.dropped)

	c.Mark(&b.reg.counters, &b.reg.gauges, &b.reg.hists)
	metrics(c, "counter", b.reg.counters, func(m *Counter) { c.U64(&m.v) })
	metrics(c, "gauge", b.reg.gauges, func(m *Gauge) { c.I64(&m.v) })
	metrics(c, "histogram", b.reg.hists, func(h *Histogram) {
		snap.Const(c, c.Int, len(h.counts), "obs: buckets of histogram "+h.name)
		for i := range h.counts {
			c.U64(&h.counts[i])
		}
		c.U64(&h.count)
		snap.Int64(c, &h.sum)
		snap.Int64(c, &h.min)
		snap.Int64(c, &h.max)
	})
}

// metrics visits one metric family in name order. Values decode onto the
// existing handles in place — subsystems cached those pointers at wiring
// time — so a metric the snapshot names must already be registered on this
// bus.
func metrics[M any](c *snap.Codec, family string, byName map[string]*M, value func(*M)) {
	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Strings(names)
	n := c.Len(len(names), 1<<20, family+" metrics")
	for i := 0; i < n && c.Err() == nil; i++ {
		var name string
		if !c.Decoding() {
			name = names[i]
		}
		c.String(&name)
		m := byName[name]
		if m == nil {
			c.Failf("obs: snapshot names unregistered %s %q", family, name)
			return
		}
		value(m)
	}
}
