package machine_test

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"compcache/internal/machine"
	"compcache/internal/obs"
	"compcache/internal/vm"
	"compcache/internal/workload"
)

// TestCompressMemoIsInvisible runs the workloads the memos help most — a
// read-only thrash several times the size of memory, then gold's warm phase —
// and the ones partial restores help most — one word read of each page of
// three memories' worth, shuffled, under LZRW1 and under FPC, then a scan of
// a file through the compressed file cache, whose frames can come from the
// cache and, before it, from pages restored in part — on a machine as built
// and on one that forgets every remembered form, in both directions, before
// each page-in and each eviction, and so runs the codec for every
// compression and decodes every page it restores whole. Nothing the
// simulated machine can report may tell them apart: the statistics with the
// metrics registry in them, the virtual clock, the snapshot bytes — taken,
// after the word reads, while frames still have tails to decode. The host
// can: the first machine's codec has to have compressed less and decoded
// fewer times and fewer bytes — except in a ccforget build, where the
// machine as built forgets too and only the invisibility is left to check.
func TestCompressMemoIsInvisible(t *testing.T) {
	codec, fpc := machine.Counted(""), machine.Counted("fpc")
	cfg := machine.Default(64 * 4096).WithCC()
	cfg.CC.Codec = codec.Name()
	cfg.CC.FileCache = true
	build := func() *machine.Machine {
		m, err := machine.New(cfg, machine.WithObs(obs.Options{}))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	asBuilt, forgetful := build(), build()
	forgetful.ForgetMemos()
	fileTails := asBuilt.WatchFileFrames()

	phases := []func() workload.Workload{
		func() workload.Workload {
			return &workload.Thrasher{Pages: 512, Passes: 4, CompressTarget: 0.5, Seed: 3}
		},
		func() workload.Workload {
			return &workload.Gold{Messages: 400, WordsPerMessage: 16, VocabWords: 300, Queries: 300,
				Phase: workload.GoldWarm, Seed: 3}
		},
		func() workload.Workload { return sparse{pages: 192, passes: 3, seed: 5} },
		func() workload.Workload { return sparse{codec: fpc.Name(), pages: 192, passes: 3, seed: 6} },
		func() workload.Workload {
			return then{sparse{pages: 192, passes: 1, seed: 7}, &workload.FileScan{FileBytes: 192 * 4096, Passes: 2, Seed: 7}}
		},
	}
	calls := func() uint64 { return codec.Calls() + fpc.Calls() }
	decodes := func() uint64 { return codec.Decodes() + fpc.Decodes() }
	bytesDecoded := func() uint64 { return codec.Decoded() + fpc.Decoded() }
	var ran, decoded, decodedBytes [2]uint64
	for _, phase := range phases {
		name := phase().Name()
		for i, m := range []*machine.Machine{asBuilt, forgetful} {
			before, decodesBefore, bytesBefore := calls(), decodes(), bytesDecoded()
			if err := phase().Run(m); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := m.Err(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			ran[i] += calls() - before
			decoded[i] += decodes() - decodesBefore
			decodedBytes[i] += bytesDecoded() - bytesBefore
		}
		if n := forgetful.PendingTails(); n != 0 {
			t.Errorf("after %s the forgetful machine has %d frames with tails pending", name, n)
		}
		if _, words := phase().(sparse); words && machine.KeepForms && asBuilt.PendingTails() == 0 {
			t.Errorf("after %s no frame of the machine as built has a tail pending", name)
		}
		if a, b := asBuilt.Stats(), forgetful.Stats(); !reflect.DeepEqual(a, b) {
			t.Errorf("after %s the statistics differ:\nas built:\n%v\nforgetful:\n%v", name, a, b)
		}
		if a, b := asBuilt.Elapsed(), forgetful.Elapsed(); a != b {
			t.Errorf("after %s the virtual clocks differ: %v as built, %v forgetful", name, a, b)
		}
		a, err := asBuilt.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		b, err := forgetful.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("after %s the snapshots differ (%d and %d bytes)", name, len(a), len(b))
		}
	}
	if err := asBuilt.VerifyCompressMemo(); err != nil {
		t.Error(err)
	}
	if err := asBuilt.VerifyPlainMemo(); err != nil {
		t.Error(err)
	}
	comp := forgetful.Stats().Comp
	if ran[1] != comp.Compressions || (machine.KeepForms && ran[0] >= ran[1]) {
		t.Errorf("%d compressions: the codec ran %d times on the forgetful machine (want all of them) and %d times on the machine as built (want fewer)",
			comp.Compressions, ran[1], ran[0])
	}
	if decoded[1] != comp.Decompressions || (machine.KeepForms && decoded[0] >= decoded[1]) {
		t.Errorf("%d decompressions: the codec decoded %d times on the forgetful machine (want all of them) and %d times on the machine as built (want fewer)",
			comp.Decompressions, decoded[1], decoded[0])
	}
	if decodedBytes[1] != comp.Decompressions*4096 || (machine.KeepForms && decodedBytes[0] >= decodedBytes[1]) {
		t.Errorf("%d decompressions: the codec decoded %d bytes on the forgetful machine (want a page for each) and %d bytes on the machine as built (want fewer)",
			comp.Decompressions, decodedBytes[1], decodedBytes[0])
	}
	if n := fileTails(); machine.KeepForms && n == 0 {
		t.Error("no frame went to the file cache with a tail pending")
	}
	t.Logf("codec compressed %d times as built, %d forgetful; decoded %d times (%d bytes) as built, %d (%d bytes) forgetful",
		ran[0], ran[1], decoded[0], decodedBytes[0], decoded[1], decodedBytes[1])
}

// then runs one workload and then another.
type then [2]workload.Workload

func (w then) Name() string { return w[0].Name() + "+" + w[1].Name() }

func (w then) Run(m *machine.Machine) error {
	if err := w[0].Run(m); err != nil {
		return err
	}
	return w[1].Run(m)
}

// sparse writes pages pages of the shape the fleet writes — half of each
// page noise, in 64-byte blocks — then reads one word of each, at a random
// place, in a shuffled order, passes times: every page it restores is read
// at that word and nowhere else. In the last pass every other read is
// followed by a word written to a page of a second segment that nothing has
// touched, whose fault clears a frame that may still have a tail.
type sparse struct {
	codec         string // the segment's codec; "" for the machine's
	pages, passes int
	seed          int64
}

func (w sparse) Name() string { return "sparse-" + w.codec }

func (w sparse) Run(m *machine.Machine) error {
	ps := int64(m.Config().PageSize)
	var s *machine.Space
	if w.codec == "" {
		s = m.NewSegment("sparse", int64(w.pages)*ps)
	} else {
		var err error
		if s, err = m.NewSegmentCodec("sparse", int64(w.pages)*ps, w.codec); err != nil {
			return err
		}
	}
	rng := rand.New(rand.NewSource(w.seed))
	page := make([]byte, ps)
	for p := range w.pages {
		clear(page)
		for blk := 0; blk < len(page); blk += 64 {
			if rng.Intn(2) == 0 {
				rng.Read(page[blk : blk+64])
			}
		}
		s.Write(int64(p)*ps, page)
	}
	fresh := m.NewSegment("fresh", int64(w.pages/2)*ps)
	for pass := range w.passes {
		for i, p := range rng.Perm(w.pages) {
			s.ReadWord(int64(p)*ps + int64(rng.Intn(int(ps/8)))*8)
			if pass == w.passes-1 && i%2 == 0 {
				fresh.WriteWord(int64(i/2)*ps, uint64(i))
			}
		}
	}
	return m.Err()
}

// TestMemosHoldThroughPrefetchEvictions: on the clustered store a page
// restored from the store brings its neighbours along, and caching them can
// evict other pages before the faulting page is resident, so those pages
// depart while the faulting one's form is remembered but its memo field not
// yet written. Both oracles must hold after each workload, and the run has
// to have evicted a page inside a page-in.
func TestMemosHoldThroughPrefetchEvictions(t *testing.T) {
	m, err := machine.New(machine.Default(64 * 4096).WithCC())
	if err != nil {
		t.Fatal(err)
	}
	w := &midPageIn{Machine: m}
	m.VM.SetPager(w)
	for _, wl := range []workload.Workload{
		&workload.Thrasher{Pages: 512, Passes: 4, CompressTarget: 0.5, Seed: 3},
		&workload.Gold{Messages: 400, WordsPerMessage: 16, VocabWords: 300, Queries: 300,
			Phase: workload.GoldWarm, Seed: 3},
	} {
		if err := wl.Run(m); err != nil {
			t.Fatalf("%s: %v", wl.Name(), err)
		}
		if err := m.VerifyCompressMemo(); err != nil {
			t.Errorf("after %s: %v", wl.Name(), err)
		}
		if err := m.VerifyPlainMemo(); err != nil {
			t.Errorf("after %s: %v", wl.Name(), err)
		}
	}
	if w.evicted == 0 {
		t.Error("no page was evicted while another was being restored")
	}
	t.Logf("%d evictions inside a page-in", w.evicted)
}

// midPageIn is a machine's pager that counts the evictions made while a
// page-in is under way.
type midPageIn struct {
	*machine.Machine
	paging  bool
	evicted int
}

func (w *midPageIn) PageOut(p *vm.Page, data []byte) error {
	if w.paging {
		w.evicted++
	}
	return w.Machine.PageOut(p, data)
}

func (w *midPageIn) PageInPrefix(p *vm.Page, data []byte, need int) (vm.Source, int, error) {
	w.paging = true
	defer func() { w.paging = false }()
	return w.Machine.PageInPrefix(p, data, need)
}

// TestNullLengthAnswerIsInvisible: the null codec's output length is fixed,
// so the machine does not run it on a page it already knows misses the keep
// threshold. A write thrash several times the size of memory, every page of
// it sent below raw, runs on a machine with the bare null codec and on one
// whose codec is the counting wrapper, which hides the length answer and so
// compresses every page. Nothing the simulated machine reports may tell them
// apart — the statistics with the metrics registry, the clock, the snapshot
// bytes — while the wrapper shows every compression the bare codec skipped.
func TestNullLengthAnswerIsInvisible(t *testing.T) {
	codec := machine.Counted("null")
	cfg := machine.Default(64 * 4096).WithCC()
	cfg.CC.Codec = "null"
	build := func() *machine.Machine {
		m, err := machine.New(cfg, machine.WithObs(obs.Options{}))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	bare, wrapped := build(), build()
	wrapped.SetCodec(codec)
	before := codec.Calls()
	for _, m := range []*machine.Machine{bare, wrapped} {
		if err := (&workload.Thrasher{Pages: 512, Write: true, Passes: 2, Seed: 3}).Run(m); err != nil {
			t.Fatal(err)
		}
	}
	if a, b := bare.Stats(), wrapped.Stats(); !reflect.DeepEqual(a, b) {
		t.Errorf("the statistics differ:\nbare:\n%v\nwrapped:\n%v", a, b)
	}
	if a, b := bare.Elapsed(), wrapped.Elapsed(); a != b {
		t.Errorf("the virtual clocks differ: %v bare, %v wrapped", a, b)
	}
	a, err := bare.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := wrapped.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("the snapshots differ (%d and %d bytes)", len(a), len(b))
	}
	comp := bare.Stats().Comp
	if ran := codec.Calls() - before; comp.Compressions == 0 || ran != comp.Compressions || comp.Incompressible != comp.Compressions {
		t.Errorf("%d compressions, %d incompressible: the wrapped codec ran %d times; want every compression run, and missing the threshold",
			comp.Compressions, comp.Incompressible, ran)
	}
}
