package machine

import (
	"compcache/internal/fault"
	"compcache/internal/swap"
	"compcache/internal/vm"
)

// Tier is one level of the chain below the compression cache (§4.1: a page
// that does not fit in the cache goes to the next level down; a fault takes
// it from the first level that has it). All methods are called on the
// machine's own actor goroutine. A tier charges transfer costs through the
// machine's devices, so virtual time and contention stay honest, and copies
// whatever it keeps — the machine reuses its buffers as soon as a call
// returns. The machine verifies integrity at the boundary: a tier stores and
// returns Sum untouched.
type Tier interface {
	// Put stores a page in its travel form (it.Data is compressed when
	// it.Compressed is set). A non-nil error means the tier did not take the
	// copy and the page goes to the next tier down.
	Put(it swap.Item) error

	// Get returns the tier's copy of a page; ok reports whether the tier
	// holds the page at all and err a failed transfer of a page it does
	// hold. along lists pages the transfer brought with it for free. The
	// returned slices are borrowed until the tier's next call.
	Get(key swap.PageKey) (it swap.Item, along []swap.Item, ok bool, err error)

	// Has reports whether the tier holds a current copy of the page.
	Has(key swap.PageKey) bool

	// Invalidate discards the tier's copy (the page was modified in memory).
	Invalidate(key swap.PageKey)
}

// link is one tier of the chain with what the machine reports about it.
type link struct {
	tier Tier
	name string    // names the tier in error reasons
	src  vm.Source // what PageIn reports when this tier serves the fault
}

// clusteredTier is the clustered backing store as the last tier of the chain.
// It owns the swap-corruption injection point: a compressed fragment is
// corrupted, when the injector says so, on its way out of the store.
type clusteredTier struct {
	*swap.Clustered
	faults *fault.Injector
	one    [1]swap.Item // single-item WriteCluster batch
}

// Put implements Tier. WriteCluster serializes into its own cluster buffer,
// and the staged reference is cleared so the tier never retains a caller's
// page buffer.
func (t *clusteredTier) Put(it swap.Item) error {
	t.one[0] = it
	err := t.WriteCluster(t.one[:], true)
	t.one[0] = swap.Item{}
	return err
}

// Get implements Tier.
func (t *clusteredTier) Get(key swap.PageKey) (swap.Item, []swap.Item, bool, error) {
	data, sum, compressed, along, ok, err := t.Read(key)
	if compressed {
		t.faults.CorruptSwap(data)
	}
	return swap.Item{Key: key, Data: data, Compressed: compressed, Sum: sum}, along, ok, err
}
