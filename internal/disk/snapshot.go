package disk

import "compcache/internal/snap"

// Snap walks the device's replay state under its own section: the timing
// state (busy horizon, address cursor) and the traffic counters.
func (q *Queue) Snap(c *snap.Codec) {
	c.Section(q.section)
	snap.Int64(c, &q.busyAt)
	c.I64(&q.next)
	c.Counters(&q.stats)
}
