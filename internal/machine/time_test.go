package machine

import (
	"testing"
	"time"

	"compcache/internal/fault"
	"compcache/internal/netdev"
	"compcache/internal/sim"
)

// TestTimeBreakdownSumsToElapsed moves the Elapsed() origin every way it can
// move — MarkStart, FreezeStart, a snapshot restored into a fresh machine —
// and each time requires the breakdown to add up to Elapsed() to the
// nanosecond, with the reference residual equal to the references the test
// itself counted since the origin.
func TestTimeBreakdownSumsToElapsed(t *testing.T) {
	tc := snapshotConfigs()["cc"]
	m := newMachine(t, tc.cfg, tc.opts...)
	s := m.NewSegment("snap", 96*4096)
	refs := func(m *Machine) uint64 { return m.VM.Stats().Refs }
	check := func(what string, m *Machine, refsAtOrigin uint64, unattributed time.Duration) {
		t.Helper()
		b := m.TimeBreakdown()
		sum := b.Reference + b.Unattributed
		for _, d := range b.Spent {
			sum += d
		}
		if sum != m.Elapsed() || b.Elapsed() != sum {
			t.Errorf("%s: breakdown sums to %v (Elapsed() of it %v), machine Elapsed() %v", what, sum, b.Elapsed(), m.Elapsed())
		}
		if want := time.Duration(refs(m)-refsAtOrigin) * m.cfg.Cost.MemRef; b.Reference != want {
			t.Errorf("%s: reference residual %v, want %v for the references since the origin", what, b.Reference, want)
		}
		if b.Unattributed != unattributed {
			t.Errorf("%s: %v unattributed, want %v", what, b.Unattributed, unattributed)
		}
		if b.Spent.Total() == 0 {
			t.Errorf("%s: nothing booked; the phase never paged", what)
		}
		if err := m.CheckInvariants(); err != nil {
			t.Errorf("%s: %v", what, err)
		}
	}

	drivePhase(m, s, 1)
	check("from creation", m, 0, 0)

	m.MarkStart()
	origin := refs(m)
	drivePhase(m, s, 2)
	check("after MarkStart", m, origin, 0)

	m.FreezeStart()
	frozen := refs(m)
	drivePhase(m, s, 3)
	m.MarkStart() // a member workload's; frozen, so the origin stays
	drivePhase(m, s, 4)
	check("after FreezeStart", m, frozen, 0)

	// The ledger does not travel in a snapshot: what the original spent
	// between the origin and the snapshot is, to the restored machine, time
	// it cannot attribute — and says so instead of calling it references.
	blob, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	before := m.Elapsed()
	r, err := Restore(tc.cfg, blob, tc.opts...)
	if err != nil {
		t.Fatal(err)
	}
	rs, _ := r.SpaceFor("snap")
	origin = refs(r)
	drivePhase(r, rs, 5)
	check("restored", r, origin, before)

	drivePhase(m, s, 5)
	check("original, same phase", m, frozen, 0)
	if r.Elapsed() != m.Elapsed() {
		t.Errorf("restored machine at %v, original at %v", r.Elapsed(), m.Elapsed())
	}

	r.FreezeStart()
	origin = refs(r)
	drivePhase(r, rs, 6)
	check("restored, origin moved past the restore", r, origin, 0)
}

// TestRetryBackoffIsBooked: a network-backed baseline with one read in twenty
// failing pages through retries, so the run spends virtual time the caller
// waits out between attempts. That time has its own cause, and the books
// still balance — the one charge site no fault-free workload reaches.
func TestRetryBackoffIsBooked(t *testing.T) {
	m := newMachine(t, Default(mb/4).WithNetwork(netdev.Ethernet10()).WithFaults(fault.Config{Seed: 3, ReadErrorRate: 0.05}))
	s := m.NewSegment("heap", mb)
	fillCompressible(s)
	for i := int32(0); i < s.Pages(); i++ {
		s.Touch(i, false)
	}
	m.Drain()
	if err := m.Err(); err != nil {
		t.Fatalf("three retries did not ride out a 5%% read-error rate: %v", err)
	}
	retries := m.Device.Stats().Retries
	if b := m.TimeBreakdown(); retries == 0 || b.Spent[sim.CauseBackoff] < time.Duration(retries)*netdev.Ethernet10().RetryBase {
		t.Errorf("%d retries, %v booked to backoff; want at least the base backoff for each", retries, b.Spent[sim.CauseBackoff])
	}
	if err := m.CheckInvariants(); err != nil {
		t.Error(err)
	}
}
