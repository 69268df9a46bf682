package machine_test

import (
	"testing"

	"compcache/internal/machine"
	"compcache/internal/mem"
	"compcache/internal/workload"
)

// TestSpareMemoryIsNotMade runs a compare of two chunks' worth of frames on a
// machine with 8 MBytes of memory, with and without the compression cache,
// as the ledger's resident workload does: the pool makes storage only for
// the chunks of frames the run was handed, nothing outside the pool holds
// bytes of any of them, and a restore of its snapshot makes no more.
func TestSpareMemoryIsNotMade(t *testing.T) {
	const memBytes = 8 << 20
	chunks := memBytes / 4096 / mem.ChunkFrames
	for _, cfg := range []machine.Config{machine.Default(memBytes), machine.Default(memBytes).WithCC()} {
		m, err := machine.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if made := m.FrameChunks(); len(made) != 0 {
			t.Fatalf("cc=%t: a new machine made %d chunks", cfg.CC.Enabled, len(made))
		}
		if err := (&workload.Compare{N: 2048, Band: 512, Seed: 1}).Run(m); err != nil {
			t.Fatal(err)
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		for _, path := range machine.HeldFrames(m) {
			t.Errorf("cc=%t: %s still points into the frame pool", cfg.CC.Enabled, path)
		}
		made := len(m.FrameChunks())
		if made < 2 || made >= chunks {
			t.Fatalf("cc=%t: compare made %d of %d chunks, want more than one but not all", cfg.CC.Enabled, made, chunks)
		}
		img, err := m.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		r, err := machine.Restore(cfg, img)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(r.FrameChunks()); got > made {
			t.Fatalf("cc=%t: restore made %d chunks, the run %d", cfg.CC.Enabled, got, made)
		}
	}
}
