package disk

import "compcache/internal/snap"

// Snap walks the device's replay state: the timing state (busy horizon, head
// position) and the traffic counters.
func (d *Disk) Snap(c *snap.Codec) {
	c.Section("disk")
	snap.Int64(c, &d.busyAt)
	c.I64(&d.next)
	c.Counters(&d.stats)
}
