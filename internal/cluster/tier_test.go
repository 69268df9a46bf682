package cluster

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"compcache/internal/fault"
	"compcache/internal/machine"
	"compcache/internal/netdev"
	"compcache/internal/sim"
	"compcache/internal/swap"
)

// TestRemoteAdapterTierContract is fleet memory's row of the Tier contract
// test in internal/machine (TestTierContract there, which cannot reach this
// package's adapter): the same random Put/Get/Invalidate stream against a map
// of the items last put — some placed in the sibling's donated frames, the
// rest spilled to the server — then the same three checks on a dead link. It
// runs as machine 0's program, since every transfer waits on the kernel.
func TestRemoteAdapterTierContract(t *testing.T) {
	c, err := New(Config{Machines: 2, MemoryBytes: 64 * 4096, Link: netdev.Ethernet10(), Seed: 1, DonationFrames: 4})
	if err != nil {
		t.Fatal(err)
	}
	inj, err := fault.New(fault.Config{Seed: 1, ReadErrorRate: 1, WriteErrorRate: 1, ActiveAfter: time.Hour}, c.machines[0].Clock)
	if err != nil {
		t.Fatal(err)
	}
	c.nets[0].SetFaultInjector(inj)
	var tier machine.Tier = &remoteAdapter{c: c, idx: 0}

	c.Go(0, func(m *machine.Machine) {
		rng := rand.New(rand.NewSource(5))
		model := map[swap.PageKey]swap.Item{}
		frame := bytes.Repeat([]byte{0xEE}, 4096)
		newItem := func(key swap.PageKey) swap.Item {
			it := swap.Item{Key: key, Data: make([]byte, 4096), Sum: rng.Uint32(), Compressed: rng.Intn(2) == 0}
			if it.Compressed {
				it.Data = it.Data[:16+rng.Intn(3000)]
			}
			rng.Read(it.Data)
			return it
		}
		for step := 0; step < 600; step++ {
			key := swap.PageKey{Seg: int32(rng.Intn(2)), Page: int32(rng.Intn(24))}
			switch rng.Intn(4) {
			case 0, 1:
				it := newItem(key)
				if err := tier.Put(it); err != nil {
					t.Errorf("step %d: Put(%v): %v", step, key, err)
					return
				}
				model[key] = it
			case 2:
				tier.Invalidate(key)
				delete(model, key)
			}
			want, held := model[key]
			var got swap.Item
			var ok bool
			got.Data, got.Compressed, got.Sum, _, ok, err = tier.Get(key, frame)
			if tier.Has(key) != held || ok != held || err != nil {
				t.Errorf("step %d: Has(%v) = %t, Get = %t, %v; want %t, nil", step, key, tier.Has(key), ok, err, held)
				return
			}
			if held && (!bytes.Equal(got.Data, want.Data) || got.Compressed != want.Compressed || got.Sum != want.Sum) {
				t.Errorf("step %d: Get(%v) returned %d bytes, compressed %t, sum %08x; put %d bytes, %t, %08x",
					step, key, len(got.Data), got.Compressed, got.Sum, len(want.Data), want.Compressed, want.Sum)
				return
			}
		}
		if bytes.Count(frame, []byte{0xEE}) != len(frame) {
			t.Error("Get wrote into the frame; only a raw tier delivers there")
		}
		if c.server.Stats().Forwards == 0 || c.spillSeq == 0 {
			t.Errorf("%d forwards to the sibling, %d spills to the server: want both placements exercised", c.server.Stats().Forwards, c.spillSeq)
		}

		var held swap.PageKey
		for held = range model {
			break
		}
		m.Clock.Charge(sim.CauseIdle, time.Hour) // the link is dead from here on
		if _, _, _, _, ok, err := tier.Get(held, frame); !ok || err == nil {
			t.Errorf("Get of a held page over a dead link = %t, %v; want true and the failure", ok, err)
		}
		if _, _, _, _, ok, err := tier.Get(swap.PageKey{Seg: 3}, frame); ok || err != nil {
			t.Errorf("Get of a page never put = %t, %v; want a clean miss", ok, err)
		}
		fresh := swap.PageKey{Seg: 2}
		if err := tier.Put(newItem(fresh)); err == nil || tier.Has(fresh) {
			t.Errorf("Put over a dead link = %v, Has = %t; want a refusal that leaves nothing", err, tier.Has(fresh))
		}
	})
	c.Run()
	if len(c.dir) == 0 {
		t.Fatal("the program never ran")
	}
}
