package machine

import (
	"fmt"
	"strings"
	"time"

	"compcache/internal/sim"
)

// Where the time went. Every advance of the machine's clock but one is a
// sim.Clock.Charge naming its cause; the one bare advance is vm.Touch's
// per-reference cost, so reference time is what the ledger leaves over.
// CheckInvariants holds the ledger to the counters, in integers: an advance
// nobody booked, or a charge without the work it stands for, fails every test
// that ends on it. None of this reaches stats.Run, the registry or a snapshot.

// books is one reading of everything the conservation equations relate: the
// clock, its ledger, and the four counters that each own one kind of charge.
type books struct {
	now                          sim.Time
	spent                        sim.Ledger
	refs, faults, comps, decomps uint64
}

func (m *Machine) readBooks() books {
	st := m.VM.Stats()
	return books{
		now: m.Clock.Now(), spent: m.Clock.Spent(),
		refs: st.Refs, faults: st.Faults,
		comps: m.comp.Compressions, decomps: m.comp.Decompressions,
	}
}

// openBooks restarts the equations from the machine's present state. A built
// machine's books open with its clock (buildMachine); Restore reopens them
// once it has replaced the clock and the counters with a snapshot's, because
// the ledger is not in a snapshot and starts over where the restored machine
// does.
func (m *Machine) openBooks() {
	m.base = m.readBooks()
	m.startSpent = m.base.spent
}

// checkBooks asserts the conservation equations since openBooks: time booked
// to no cause is exactly the references made, and the fault, compress and
// decompress entries are exactly their counters times the cost model.
func (m *Machine) checkBooks() error {
	cur, cost := m.readBooks(), m.cfg.Cost
	spent := cur.spent.Sub(m.base.spent)
	refs := cur.refs - m.base.refs
	if got, want := cur.now.Sub(m.base.now)-spent.Total(), time.Duration(refs)*cost.MemRef; got != want {
		return fmt.Errorf("machine: %v of virtual time is booked to no cause, but %d references at %v each account for %v", got, refs, cost.MemRef, want)
	}
	for _, eq := range []struct {
		cause sim.Cause
		n     uint64
		each  time.Duration
	}{
		{sim.CauseFault, cur.faults - m.base.faults, cost.FaultOverhead},
		{sim.CauseCompress, cur.comps - m.base.comps, cost.CompressCost(m.cfg.PageSize)},
		{sim.CauseDecompress, cur.decomps - m.base.decomps, cost.DecompressCost(m.cfg.PageSize)},
	} {
		if got, want := spent[eq.cause], time.Duration(eq.n)*eq.each; got != want {
			return fmt.Errorf("machine: %v of virtual time is booked to %v, but the counters show %d at %v each: %v", got, eq.cause, eq.n, eq.each, want)
		}
	}
	return nil
}

// TimeBreakdown says where Elapsed() went. The fields sum to it exactly.
type TimeBreakdown struct {
	// Reference is the time the workload's own references took: what is left
	// of Elapsed() once every booked cause is taken out.
	Reference time.Duration
	// Spent is the time booked to each cause.
	Spent sim.Ledger
	// Unattributed is the part of Elapsed() that passed before this machine's
	// ledger began. Only a machine restored from a snapshot taken after its
	// Elapsed() origin has any: the ledger does not travel in a snapshot.
	Unattributed time.Duration
}

// TimeBreakdown reports where the virtual time since the Elapsed() origin
// went, by cause.
func (m *Machine) TimeBreakdown() TimeBreakdown {
	b := TimeBreakdown{Spent: m.Clock.Spent().Sub(m.startSpent)}
	if m.start < m.base.now {
		b.Unattributed = m.base.now.Sub(m.start)
	}
	b.Reference = m.Elapsed() - b.Spent.Total() - b.Unattributed
	return b
}

// Elapsed is the sum of the breakdown: the Elapsed() it was taken at.
func (b TimeBreakdown) Elapsed() time.Duration { return b.Reference + b.Spent.Total() + b.Unattributed }

// String renders the breakdown the way stats.Run renders its block: one
// aligned row per cause that took any time, each with its share of the total.
func (b TimeBreakdown) String() string {
	total := b.Elapsed()
	var sb strings.Builder
	fmt.Fprintf(&sb, "where the time went (%v virtual):\n", total)
	row := func(name string, d time.Duration) {
		if d != 0 {
			fmt.Fprintf(&sb, "  %-12s %14v %5.1f%%\n", name, d, 100*float64(d)/float64(total))
		}
	}
	row("reference", b.Reference)
	for c, d := range b.Spent {
		row(sim.Cause(c).String(), d)
	}
	row("unattributed", b.Unattributed)
	return sb.String()
}
