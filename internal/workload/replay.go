package workload

import (
	"fmt"

	"compcache/internal/machine"
	"compcache/internal/trace"
)

// Replay re-executes a recorded page-reference trace against a machine —
// the classic way to compare policies on identical input. Segments are
// recreated with the sizes the trace implies; page contents are synthesized
// at the configured compressibility (a trace records references, not data).
type Replay struct {
	// Refs is the recorded trace (see trace.Recorder / trace.ReadTrace).
	Refs []trace.PageRef

	// CompressTarget tunes the synthesized page contents (default 0.25).
	CompressTarget float64

	// Seed makes the synthesized contents reproducible.
	Seed int64
}

// Name implements Workload.
func (r *Replay) Name() string { return "replay" }

// Run implements Workload.
func (r *Replay) Run(m *machine.Machine) error {
	if len(r.Refs) == 0 {
		return fmt.Errorf("replay: empty trace")
	}
	target := r.CompressTarget
	if target == 0 {
		target = 0.25
	}
	// Size one space per segment seen in the trace.
	segs, err := trace.Segments(r.Refs)
	if err != nil {
		return err
	}
	pageSize := int64(m.Config().PageSize)
	spaces := map[int32]*machine.Space{}
	for _, seg := range segs {
		spaces[seg.ID] = m.NewSegment(fmt.Sprintf("replay.seg%d", seg.ID), seg.Pages*pageSize)
	}
	// Populate every referenced page with synthesized contents (setup).
	rng := newPageFiller(r.Seed, int(pageSize), target)
	seen := map[trace.PageRef]bool{}
	for _, ref := range r.Refs {
		key := trace.PageRef{Seg: ref.Seg, Page: ref.Page}
		if !seen[key] {
			seen[key] = true
			spaces[ref.Seg].Write(int64(ref.Page)*pageSize, rng.page())
		}
	}

	m.MarkStart()
	for _, ref := range r.Refs {
		spaces[ref.Seg].Touch(ref.Page, ref.Write)
	}
	m.Drain()
	return nil
}
