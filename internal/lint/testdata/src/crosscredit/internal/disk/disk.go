// Package disk is the crosscredit fixture for same-package chains: the
// chargeable device primitives live here, and a chain that starts and ends
// in this package owes the clock exactly like one that crosses packages —
// an uncharged primitive is itself a finding.
package disk

import (
	"time"

	"compcache/crosscredit/internal/compress"
	"compcache/crosscredit/internal/sim"
)

// Disk is the fixture device.
type Disk struct {
	clock *sim.Clock
}

// Write is a chargeable device primitive that charges itself.
func (d *Disk) Write(addr int64, p []byte) {
	d.clock.Advance(time.Duration(len(p)))
}

// Read is a device primitive that does not charge: flagged itself, and
// the target of the same-package chains below.
func (d *Disk) Read(addr int64, p []byte) {} // want `Read does codec/device work \(Read\) but no call path ever advances the virtual clock`

// WriteCluster is the uncharged primitive the machine fixture writes through.
func (d *Disk) WriteCluster(addr int64, p []byte) {} // want `WriteCluster does codec/device work \(WriteCluster\)`

// Scrub reaches the uncharged Read without leaving its own package.
func (d *Disk) Scrub(p []byte) { // want `Scrub does codec/device work \(Scrub → disk\.Read\)`
	d.Read(0, p)
}

// Verify reaches the same Read through a helper that charges for it. The
// mutation test deletes the helper's Advance and expects exactly one new
// finding, here.
func (d *Disk) Verify(p []byte) {
	d.chargedRead(p)
}

func (d *Disk) chargedRead(p []byte) {
	d.clock.Advance(1)
	d.Read(0, p)
}

// BadCompact reaches codec work in another package without charging.
func (d *Disk) BadCompact(p []byte) []byte { // want `BadCompact does codec/device work \(BadCompact → compress\.Compress\)`
	var z compress.LZ
	return z.Compress(p)
}
