// Package machine is the crosscredit golden fixture for the scoped
// exported API: direct work, work behind an unexported helper, and chains
// that keep the codec work two packages away.
package machine

import (
	"compcache/crosscredit/internal/compress"
	"compcache/crosscredit/internal/disk"
	"compcache/crosscredit/internal/pipeline"
	"compcache/crosscredit/internal/sim"
)

// Machine owns the fixture's clock and mirrors the real struct's codec and
// device fields.
type Machine struct {
	clock *sim.Clock
	codec compress.LZ
	disk  *disk.Disk
}

// BadCompress does codec work without charging the clock.
func (m *Machine) BadCompress(p []byte) []byte { // want `BadCompress does codec/device work \(BadCompress → compress\.Compress\)`
	return m.codec.Compress(p)
}

// BadWrite touches the device through its uncharged primitive.
func (m *Machine) BadWrite(p []byte) { // want `BadWrite does codec/device work \(BadWrite → disk\.WriteCluster\)`
	m.disk.WriteCluster(0, p)
}

// BadViaHelper reaches uncharged work through an unexported helper; the
// exported entry point is what gets flagged, with the helper in the chain.
func (m *Machine) BadViaHelper(p []byte) { // want `BadViaHelper does codec/device work \(BadViaHelper → machine\.unchargedWrite → disk\.WriteCluster\)`
	m.unchargedWrite(p)
}

func (m *Machine) unchargedWrite(p []byte) {
	m.disk.WriteCluster(0, p)
}

// GoodCompress charges the clock in the same body.
func (m *Machine) GoodCompress(p []byte) []byte {
	m.clock.Advance(1)
	return m.codec.Compress(p)
}

// GoodViaHelper charges through a same-package helper; credit propagates
// transitively.
func (m *Machine) GoodViaHelper(p []byte) {
	m.chargedWrite(p)
}

func (m *Machine) chargedWrite(p []byte) {
	m.clock.Advance(1)
	m.disk.WriteCluster(0, p)
}

// BadDeep reaches codec work two packages away with no credit on any
// path: the chain in the message names the route.
func (m *Machine) BadDeep(p []byte) []byte { // want `BadDeep does codec/device work \(BadDeep → pipeline\.Process → compress\.Compress\) but no call path ever advances the virtual clock`
	return pipeline.Process(p)
}

// GoodDeep reaches the same work through a chain that charges the clock.
func (m *Machine) GoodDeep(p []byte) []byte {
	return pipeline.ProcessCharged(m.clock, p)
}

// BadIface reaches codec work through interface dispatch; method-set
// resolution still finds the uncharged chain.
func (m *Machine) BadIface(c pipeline.Codec, p []byte) []byte { // want `BadIface does codec/device work`
	return pipeline.Apply(c, p)
}

// BadEmbedded reaches it through a method promoted from an embedded
// interface: the selection is on a struct, the edge is dynamic all the same.
func (m *Machine) BadEmbedded(s pipeline.Stage, p []byte) []byte { // want `BadEmbedded does codec/device work \(BadEmbedded → pipeline\.ApplyStage → `
	return pipeline.ApplyStage(s, p)
}

// BadCycle reaches it through mutual recursion, by the shortest way round.
func (m *Machine) BadCycle(p []byte) []byte { // want `BadCycle does codec/device work \(BadCycle → pipeline\.Ping → pipeline\.Pong → pipeline\.Process → compress\.Compress\)`
	return pipeline.Ping(p, 3)
}

// GoodKernelWait reaches the same cross-package codec work, but the
// kernel-mediated wait is the credit: Kernel.Wait is how an attached
// clock advances.
func (m *Machine) GoodKernelWait(k *sim.Kernel, p []byte) []byte {
	k.Wait(0, sim.Time(len(p)))
	return pipeline.Process(p)
}

// GoodKernelSchedule credits through the kernel timer API on the way to
// the uncharged pipeline.
func (m *Machine) GoodKernelSchedule(k *sim.Kernel, p []byte) []byte {
	k.Schedule(10, 0)
	return pipeline.Process(p)
}

// Idle does no chargeable work at all; silent.
func (m *Machine) Idle() sim.Time { return m.clock.Now() }
