package machine

import (
	"fmt"

	"compcache/internal/fault"
	"compcache/internal/snap"
	"compcache/internal/stats"
	"compcache/internal/swap"
	"compcache/internal/vm"
)

// Tier is one level of the chain below memory (§4.1: a page that leaves
// memory goes to the next level down; a fault takes it from the first level
// that has it). On a compression-cache machine the chain starts under the
// cache; on the baseline it is the whole of the paging path. All methods are
// called on the machine's own actor goroutine. A tier charges transfer costs
// through the machine's devices, so virtual time and contention stay honest,
// and copies whatever it keeps — the machine reuses its buffers as soon as a
// call returns. The machine verifies integrity at the boundary: a tier stores
// and returns Sum untouched.
type Tier interface {
	// Put stores a page in its travel form (it.Data is compressed when
	// it.Compressed is set). A non-nil error means the tier did not take the
	// copy and the page goes to the next tier down.
	Put(it swap.Item) error

	// Get returns the tier's copy of a page as it was Put — the payload,
	// whether it is compressed, its sum; ok reports whether the tier holds
	// the page at all and err a failed transfer of a page it does hold. page
	// is the frame the fault is filling: a tier that keeps whole pages may
	// deliver straight into it and return it as the payload, every other
	// tier ignores it. along lists pages the transfer brought with it for
	// free. The returned slices are borrowed until the tier's next call and
	// read-only: they may be the store's own media.
	// (Pieces, not a swap.Item: see DESIGN.md "The raw link".)
	Get(key swap.PageKey, page []byte) (payload []byte, compressed bool, sum uint32, along []swap.Item, ok bool, err error)

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
	// raw: the tier's format is whole uncompressed pages with no checksum
	// (unmodified Sprite has nowhere to put one), delivered into the frame:
	// nothing to sum on the way down, nothing to verify or move on the way up.
	raw bool
}

// store is the machine's own backing store: the last tier of the chain, plus
// what the machine reports, audits and snapshots of it.
type store interface {
	Tier
	Stats() stats.Swap
	CheckConsistency() error
	Snap(c *snap.Codec)
}

// directTier and lfsTier are the baseline's stores as tiers. They hold the
// concrete store, so the one dynamic call on a baseline fault is the chain's.
type directTier struct{ *swap.Direct }

func (t directTier) Put(it swap.Item) error { return t.Write(it.Key, it.Data) }

func (t directTier) Get(key swap.PageKey, page []byte) ([]byte, bool, uint32, []swap.Item, bool, error) {
	ok, err := t.Read(key, page)
	return page, false, 0, nil, ok || err != nil, err
}

type lfsTier struct{ *swap.LFS }

// Put implements Tier. The log stages a page before the flush that can fail,
// so a refused page is taken back out: the chain offers it further down.
func (t lfsTier) Put(it swap.Item) error {
	err := t.Write(it.Key, it.Data)
	if err != nil {
		t.Invalidate(it.Key)
	}
	return err
}

func (t lfsTier) Get(key swap.PageKey, page []byte) ([]byte, bool, uint32, []swap.Item, bool, error) {
	ok, err := t.Read(key, page)
	return page, false, 0, nil, ok || err != nil, err
}

// clusteredTier is the clustered backing store as the last tier of the chain.
// It owns the swap-corruption injection point: a compressed fragment is
// corrupted, when the injector says so, on its way out of the store.
type clusteredTier struct {
	*swap.Clustered
	faults *fault.Injector
	one    [1]swap.Item // single-item WriteCluster batch
	buf    []byte       // a compressed payload's copy, for the injector to corrupt
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

// Get implements Tier. The store may lend its platter bytes, which must not
// change: on a machine with an injector, a compressed payload is copied
// before the injector draws, whether or not it then corrupts the copy.
func (t *clusteredTier) Get(key swap.PageKey, _ []byte) ([]byte, bool, uint32, []swap.Item, bool, error) {
	data, sum, compressed, along, ok, err := t.Read(key)
	if compressed && t.faults != nil {
		t.buf = append(t.buf[:0], data...)
		data = t.buf
		t.faults.CorruptSwap(data)
	}
	return data, compressed, sum, along, ok, err
}

// VerifyRecovery checks m, booted by NewFromMedia from crashed's media image,
// against what crashed held when the power went: no page acknowledged as
// durable is lost and nothing torn is served (swap.Clustered.VerifyRecovery
// and swap.LFS.VerifyRecovery state each format's exact guarantees).
func (m *Machine) VerifyRecovery(crashed *Machine) error {
	switch rec := m.store.(type) {
	case *clusteredTier:
		if pre, ok := crashed.store.(*clusteredTier); ok {
			return rec.Clustered.VerifyRecovery(pre.Clustered)
		}
	case lfsTier:
		if pre, ok := crashed.store.(lfsTier); ok {
			return rec.LFS.VerifyRecovery(pre.LFS)
		}
	default:
		return fmt.Errorf("no recoverable store")
	}
	return fmt.Errorf("machine: recovered store %T cannot be verified against a crashed %T", m.store, crashed.store)
}
