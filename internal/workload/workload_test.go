package workload

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"time"

	"compcache/internal/fault"
	"compcache/internal/machine"
	"compcache/internal/trace"
)

const mb = 1 << 20

// small machine configs for workload tests (virtual sizes are scaled down;
// experiments use paper-scale parameters).
func baseCfg() machine.Config { return machine.Default(2 * mb) }
func ccCfg() machine.Config   { return machine.Default(2 * mb).WithCC() }

func TestThrasherRuns(t *testing.T) {
	for _, write := range []bool{false, true} {
		w := &Thrasher{Pages: 1024, Write: write, Passes: 2, Seed: 1}
		st, err := Measure(baseCfg(), w)
		if err != nil {
			t.Fatal(err)
		}
		if st.VM.Faults == 0 {
			t.Fatalf("write=%v: thrasher did not fault with 2x-memory working set", write)
		}
		if st.Time == 0 {
			t.Fatal("no time elapsed")
		}
	}
}

func TestThrasherNamesDistinct(t *testing.T) {
	ro := &Thrasher{Pages: 1, Write: false}
	rw := &Thrasher{Pages: 1, Write: true}
	if ro.Name() == rw.Name() {
		t.Fatal("names collide")
	}
}

func TestThrasherCCSpeedsUp(t *testing.T) {
	w := func() Workload { return &Thrasher{Pages: 1024, Write: true, Passes: 2, Seed: 1} }
	cmp, err := RunBoth(baseCfg(), ccCfg(), w())
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Speedup() <= 1.5 {
		t.Fatalf("thrasher speedup = %.2f, want > 1.5 (the paper's maximum-improvement case)", cmp.Speedup())
	}
	if cmp.CC.CC.Hits == 0 {
		t.Fatal("CC run did not hit the cache")
	}
}

func TestThrasherInMemoryNoSlowdown(t *testing.T) {
	// A working set that fits in memory must not be noticeably hurt by the
	// compression cache ("the compression cache should stay out of the
	// way").
	w := func() Workload { return &Thrasher{Pages: 256, Write: true, Passes: 4, Seed: 2} }
	cmp, err := RunBoth(baseCfg(), ccCfg(), w())
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Speedup() < 0.95 {
		t.Fatalf("in-memory thrasher slowed to %.2fx under the CC", cmp.Speedup())
	}
	if cmp.CC.Comp.Compressions > 50 {
		t.Fatalf("CC compressed %d pages for an in-memory workload", cmp.CC.Comp.Compressions)
	}
}

func TestThrasherValidation(t *testing.T) {
	if _, err := Measure(baseCfg(), &Thrasher{Pages: 0}); err == nil {
		t.Fatal("Pages=0 accepted")
	}
}

func TestCompareRuns(t *testing.T) {
	w := &Compare{N: 2000, Band: 128, Seed: 3}
	st, err := Measure(baseCfg(), w)
	if err != nil {
		t.Fatal(err)
	}
	if st.VM.Refs == 0 {
		t.Fatal("compare made no references")
	}
}

func TestCompareCompressesWell(t *testing.T) {
	// The DP band must be compressible (paper: ~3:1, <1% uncompressible).
	w := &Compare{N: 4000, Band: 256, Seed: 3}
	st, err := Measure(ccCfg(), w)
	if err != nil {
		t.Fatal(err)
	}
	if st.Comp.Compressions == 0 {
		t.Skip("no memory pressure at this scale")
	}
	if f := st.Comp.UncompressibleFrac(); f > 0.1 {
		t.Fatalf("compare uncompressible fraction %.2f, want < 0.1", f)
	}
	if r := st.Comp.Ratio(); r > 0.5 {
		t.Fatalf("compare compression ratio %.2f, want < 0.5", r)
	}
}

func TestCompareValidation(t *testing.T) {
	if _, err := Measure(baseCfg(), &Compare{N: 1, Band: 1}); err == nil {
		t.Fatal("degenerate compare accepted")
	}
}

func TestCacheSimRuns(t *testing.T) {
	w := &CacheSim{CPUs: 2, Sets: 64, Ways: 2, AddrWords: 1 << 14,
		BlockWordsList: []int{4, 16}, Refs: 20000, Seed: 4}
	st, err := Measure(baseCfg(), w)
	if err != nil {
		t.Fatal(err)
	}
	if st.VM.Refs == 0 {
		t.Fatal("isca made no references")
	}
	rates := w.MissRates()
	if len(rates) != 2 {
		t.Fatalf("got %d miss rates, want 2", len(rates))
	}
	for i, r := range rates {
		if r <= 0 || r >= 1 {
			t.Fatalf("miss rate %d = %v out of (0,1)", i, r)
		}
	}
}

func TestCacheSimLargerBlocksFewerColdMisses(t *testing.T) {
	// With strided locality, larger blocks exploit spatial locality: the
	// miss rate should not increase dramatically with block size on the
	// strided half of the trace. We only check the simulation is sensitive
	// to its parameter at all.
	w := &CacheSim{CPUs: 2, Sets: 128, Ways: 2, AddrWords: 1 << 15,
		BlockWordsList: []int{2, 32}, Refs: 40000, Seed: 5}
	if _, err := Measure(baseCfg(), w); err != nil {
		t.Fatal(err)
	}
	rates := w.MissRates()
	if rates[0] == rates[1] {
		t.Fatalf("block size had no effect: %v", rates)
	}
}

func TestCacheSimValidation(t *testing.T) {
	if _, err := Measure(baseCfg(), &CacheSim{}); err == nil {
		t.Fatal("empty config accepted")
	}
	bad := &CacheSim{CPUs: 1, Sets: 8, Ways: 1, AddrWords: 1 << 10, Refs: 10,
		BlockWordsList: []int{3}}
	if _, err := Measure(baseCfg(), bad); err == nil {
		t.Fatal("non-power-of-two block accepted")
	}
}

func TestSortProducesSortedOutput(t *testing.T) {
	for _, mode := range []SortMode{SortRandom, SortPartial} {
		w := &Sort{Bytes: mb / 2, Mode: mode, VocabWords: 500, Seed: 6}
		if _, err := Measure(baseCfg(), w); err != nil {
			t.Fatal(err)
		}
		if idx := w.VerifySorted(); idx != -1 {
			t.Fatalf("mode %v: output out of order at record %d", mode, idx)
		}
	}
}

func TestSortUnderCCProducesSortedOutput(t *testing.T) {
	w := &Sort{Bytes: mb, Mode: SortPartial, VocabWords: 500, Seed: 6}
	if _, err := Measure(ccCfg(), w); err != nil {
		t.Fatal(err)
	}
	if idx := w.VerifySorted(); idx != -1 {
		t.Fatalf("output out of order at record %d", idx)
	}
}

func TestSortCompressibilityContrast(t *testing.T) {
	// Partial input must be much more compressible than random input
	// (paper: 49% vs 98% uncompressible pages).
	run := func(mode SortMode) float64 {
		w := &Sort{Bytes: 2 * mb, Mode: mode, VocabWords: 4000, Seed: 7}
		st, err := Measure(ccCfg(), w)
		if err != nil {
			t.Fatal(err)
		}
		if st.Comp.Compressions == 0 {
			t.Skip("no memory pressure at this scale")
		}
		return st.Comp.UncompressibleFrac()
	}
	random := run(SortRandom)
	partial := run(SortPartial)
	if random <= partial {
		t.Fatalf("random uncompressible %.2f should exceed partial %.2f", random, partial)
	}
	if random < 0.5 {
		t.Fatalf("random input uncompressible fraction %.2f, want > 0.5", random)
	}
}

func TestSortValidation(t *testing.T) {
	if _, err := Measure(baseCfg(), &Sort{Bytes: 10}); err == nil {
		t.Fatal("tiny sort accepted")
	}
}

// recordLess must order records as bytes.Compare does: on random records, on
// pairs that agree in their first word (so the second decides), and on bytes
// of 0x80 and above, which a signed or little-endian compare misorders.
func TestRecordLessMatchesBytesCompare(t *testing.T) {
	rec := func(s string) (r [recordBytes]byte) {
		copy(r[:], s)
		return r
	}
	pairs := [][2][recordBytes]byte{
		{rec(""), rec("")},
		{rec("apple"), rec("apples")},
		{rec("abcdefgh"), rec("abcdefgh\x01")},
		{rec("abcdefgh\x7f"), rec("abcdefgh\x80")},
		{rec("\x7f"), rec("\x80")},
		{rec("\x01\xff"), rec("\xff\x01")},
		{rec("abcdefgh12345678"), rec("abcdefgh12345679")},
		{rec("\xff\xff\xff\xff\xff\xff\xff\xff\xff"), rec("\xff\xff\xff\xff\xff\xff\xff\xff\x00")},
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		var a, b [recordBytes]byte
		rng.Read(a[:])
		rng.Read(b[:])
		// Share a prefix of 0 to 16 bytes, so many pairs tie on the
		// first word and some are equal.
		copy(b[:rng.Intn(recordBytes+1)], a[:])
		pairs = append(pairs, [2][recordBytes]byte{a, b})
	}
	for _, p := range pairs {
		for _, ab := range [2][2][recordBytes]byte{p, {p[1], p[0]}} {
			a, b := ab[0], ab[1]
			if got, want := recordLess(&a, &b), bytes.Compare(a[:], b[:]) < 0; got != want {
				t.Fatalf("recordLess(%x, %x) = %v, bytes.Compare says %v", a, b, got, want)
			}
		}
	}
}

func TestGoldPhasesRun(t *testing.T) {
	for _, phase := range []GoldPhase{GoldCreate, GoldCold, GoldWarm} {
		w := &Gold{Messages: 400, WordsPerMessage: 16, VocabWords: 300,
			Queries: 200, Phase: phase, Seed: 8}
		st, err := Measure(baseCfg(), w)
		if err != nil {
			t.Fatalf("phase %v: %v", phase, err)
		}
		if st.VM.Refs == 0 {
			t.Fatalf("phase %v made no references", phase)
		}
	}
}

func TestGoldColdFaultsAfterRestart(t *testing.T) {
	w := &Gold{Messages: 400, WordsPerMessage: 16, VocabWords: 300,
		Queries: 300, Phase: GoldCold, Seed: 9}
	st, err := Measure(baseCfg(), w)
	if err != nil {
		t.Fatal(err)
	}
	// EvictAll pushed the index out; the timed phase must fault it back.
	if st.VM.Faults == 0 {
		t.Fatal("cold phase took no faults")
	}
}

func TestGoldQueryFindsPostings(t *testing.T) {
	m, err := machine.New(baseCfg())
	if err != nil {
		t.Fatal(err)
	}
	g := &Gold{Messages: 100, WordsPerMessage: 8, VocabWords: 50, Queries: 1, Seed: 10}
	if err := g.Run(m); err != nil {
		t.Fatal(err)
	}
}

func TestGoldValidation(t *testing.T) {
	if _, err := Measure(baseCfg(), &Gold{Messages: 0}); err == nil {
		t.Fatal("Messages=0 accepted")
	}
}

// TestGoldOnDeadMachineReturnsItsError: once the backing store fails, every
// word the index reads is zero, so without a check each lookup misses and
// each insert allocates until the index arena panics. Each phase stops at
// the machine's error and returns it. The index outgrows memory while it is
// built, so even the create phase writes to the failing store.
func TestGoldOnDeadMachineReturnsItsError(t *testing.T) {
	for _, phase := range []GoldPhase{GoldCreate, GoldCold, GoldWarm} {
		w := &Gold{Messages: 6000, WordsPerMessage: 32, VocabWords: 3000, Phase: phase, Seed: 11}
		_, err := Measure(baseCfg().WithFaults(fault.Config{Seed: 1, WriteErrorRate: 1}), w)
		var ue *fault.UnrecoverableError
		if !errors.As(err, &ue) {
			t.Errorf("phase %v: got %v, want a *fault.UnrecoverableError", phase, err)
		}
	}
}

func TestRunBothRequiresProperConfigs(t *testing.T) {
	w := &Thrasher{Pages: 16, Passes: 1}
	if _, err := RunBoth(ccCfg(), ccCfg(), w); err == nil {
		t.Fatal("RunBoth accepted CC baseline")
	}
	if _, err := RunBoth(baseCfg(), baseCfg(), w); err == nil {
		t.Fatal("RunBoth accepted non-CC comparison config")
	}
}

func TestVocabularyDeterministicDistinct(t *testing.T) {
	a := vocabulary(100, 1)
	b := vocabulary(100, 1)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("vocabulary not deterministic")
		}
	}
	seen := map[string]bool{}
	for _, w := range a {
		if seen[w] {
			t.Fatalf("duplicate word %q", w)
		}
		seen[w] = true
		if len(w) < 4 || len(w) > 12 {
			t.Fatalf("word %q out of length range", w)
		}
	}
	// The words share one string and the dedup set has fixed-size keys, so a
	// sort's 4000-word vocabulary costs a handful of allocations, not two a
	// word.
	if allocs := testing.AllocsPerRun(3, func() { vocabulary(4000, 1) }); allocs > 32 {
		t.Errorf("vocabulary(4000, 1) makes %.0f allocations, want at most 32", allocs)
	}
}

func TestFillTunableRatios(t *testing.T) {
	// The helper's output should actually compress near the target.
	w := &Thrasher{Pages: 600, Write: true, Passes: 1, CompressTarget: 0.6, Seed: 11}
	st, err := Measure(ccCfg(), w)
	if err != nil {
		t.Fatal(err)
	}
	if st.Comp.Compressions == 0 {
		t.Skip("no pressure")
	}
	if r := st.Comp.Ratio(); r < 0.4 || r > 0.78 {
		t.Fatalf("target 0.6 produced ratio %.2f", r)
	}
}

func TestRecordAndReplay(t *testing.T) {
	// Record a thrasher run, then replay the trace on baseline and CC
	// machines: the replay must reproduce the workload's character
	// (faults, speedup direction).
	m, err := machine.New(baseCfg())
	if err != nil {
		t.Fatal(err)
	}
	var rec trace.Recorder
	m.VM.SetTraceHook(rec.Note)
	if err := (&Thrasher{Pages: 1024, Write: true, Passes: 1, Seed: 1}).Run(m); err != nil {
		t.Fatal(err)
	}
	if len(rec.Refs) == 0 {
		t.Fatal("nothing recorded")
	}

	// Serialize and re-load, then replay.
	var buf bytes.Buffer
	if _, err := rec.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	refs, err := trace.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := RunBoth(baseCfg(), ccCfg(), &Replay{Refs: refs, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Std.VM.Faults == 0 {
		t.Fatal("replay did not fault")
	}
	if cmp.Speedup() <= 1 {
		t.Fatalf("replayed thrasher speedup %.2f, want > 1", cmp.Speedup())
	}
}

func TestReplayValidation(t *testing.T) {
	if _, err := Measure(baseCfg(), &Replay{}); err == nil {
		t.Fatal("empty trace accepted")
	}
	bad := []trace.PageRef{{Seg: -1, Page: 0}}
	if _, err := Measure(baseCfg(), &Replay{Refs: bad}); err == nil {
		t.Fatal("negative segment accepted")
	}
}

// TestReplayLeadingPageZeroMakesOneSegment: a trace that opens on page 0 of
// its segment replays into exactly one segment, sized by its highest page.
func TestReplayLeadingPageZeroMakesOneSegment(t *testing.T) {
	refs := []trace.PageRef{{Seg: 0, Page: 0}, {Seg: 0, Page: 0, Write: true}, {Seg: 0, Page: 5}}
	m, _, err := MeasureMachine(baseCfg(), &Replay{Refs: refs, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	segs := m.VM.Segments()
	if len(segs) != 1 || segs[0].NPages != 6 {
		t.Fatalf("replay made %d segment(s), want one of 6 pages", len(segs))
	}
}

func TestMultiRunsAllMembers(t *testing.T) {
	s1 := &Thrasher{Pages: 512, Write: true, Passes: 1, Seed: 1}
	s2 := &Sort{Bytes: mb / 2, Mode: SortPartial, VocabWords: 300, Seed: 2}
	w := &Multi{Workloads: []Workload{s1, s2}, QuantumRefs: 500}
	m, st, err := MeasureMachine(ccCfg(), w)
	if err != nil {
		t.Fatal(err)
	}
	if st.VM.Refs == 0 {
		t.Fatal("no references")
	}
	// The runner froze the Elapsed() origin before the first reference, so the
	// members' own MarkStart calls moved neither it nor the time breakdown's.
	b := m.TimeBreakdown()
	if want := time.Duration(st.VM.Refs) * m.Config().Cost.MemRef; b.Elapsed() != st.Time || b.Reference != want {
		t.Errorf("breakdown sums to %v with %v of references; want %v with %v", b.Elapsed(), b.Reference, st.Time, want)
	}
	// The sort member must still have produced correct output despite
	// interleaving.
	if idx := s2.VerifySorted(); idx != -1 {
		t.Fatalf("interleaved sort out of order at %d", idx)
	}
}

func TestMultiDeterministic(t *testing.T) {
	run := func() int64 {
		w := &Multi{Workloads: []Workload{
			&Thrasher{Pages: 400, Write: true, Passes: 1, Seed: 3},
			&Thrasher{Pages: 300, Write: false, Passes: 1, Seed: 4},
		}, QuantumRefs: 777}
		st, err := Measure(ccCfg(), w)
		if err != nil {
			t.Fatal(err)
		}
		return int64(st.Time)
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("multiprogramming not deterministic: %d vs %d", a, b)
	}
}

// recordRun runs w on a fresh machine with a recorder on the trace hook and
// returns the machine and what the recorder saw.
func recordRun(t *testing.T, w Workload) (*machine.Machine, *trace.Recorder) {
	t.Helper()
	m, err := machine.New(ccCfg())
	if err != nil {
		t.Fatal(err)
	}
	rec := &trace.Recorder{}
	m.VM.SetTraceHook(rec.Note)
	if err := w.Run(m); err != nil {
		t.Fatal(err)
	}
	return m, rec
}

// TestMultiScheduleMatchesModel pins the interleaving itself: the reference
// stream of three replayed traces of unequal length equals a plain
// round-robin model's over the streams the members produce alone. The model
// keeps the two corners of the schedule: the reference counter is shared and
// is not reset when a member finishes mid-quantum, so its successor's first
// slice is short, and the longest member ends alone.
func TestMultiScheduleMatchesModel(t *testing.T) {
	const quantum = 4
	lengths := []int{3, 17, 6} // member 0 finishes inside its first quantum, member 1 ends alone
	members := make([]Workload, len(lengths))
	streams := make([][]trace.PageRef, len(lengths))
	for i, n := range lengths {
		refs := make([]trace.PageRef, n)
		for j := range refs {
			// Every trace opens on page 0, and member i still owns segment i
			// alone.
			refs[j] = trace.PageRef{Page: int32((j * (i + 2)) % 5), Write: j%3 == 0}
		}
		members[i] = &Replay{Refs: refs, Seed: int64(i)}
		_, rec := recordRun(t, members[i])
		streams[i] = rec.Refs // setup writes, then the trace, all in segment 0
		for j := range streams[i] {
			streams[i][j].Seg = int32(i) // in the mix, member i makes the i-th segment
		}
	}

	total := 0
	for _, s := range streams {
		total += len(s)
	}
	var want []trace.PageRef
	pos := make([]int, len(streams))
	shortSlice := false
	for cur, refs := 0, 0; len(want) < total; cur = (cur + 1) % len(streams) {
		for pos[cur] < len(streams[cur]) {
			want = append(want, streams[cur][pos[cur]])
			pos[cur]++
			if refs++; refs >= quantum {
				refs = 0
				break
			}
		}
		shortSlice = shortSlice || (refs != 0 && len(want) < total)
	}
	if !shortSlice {
		t.Fatal("no member finished mid-quantum ahead of another; the test lost its corner")
	}

	_, rec := recordRun(t, &Multi{Workloads: members, QuantumRefs: quantum})
	if len(rec.Refs) != len(want) {
		t.Fatalf("recorded %d references, the model makes %d", len(rec.Refs), len(want))
	}
	for i := range want {
		if rec.Refs[i] != want[i] {
			t.Fatalf("reference %d is %+v, the round-robin model says %+v", i, rec.Refs[i], want[i])
		}
	}
}

// TestMultiKeepsCallersTraceHook: Multi schedules from the trace hook, and a
// hook the caller installed first keeps seeing every reference during the run
// and is the installed hook again after it.
func TestMultiKeepsCallersTraceHook(t *testing.T) {
	m, rec := recordRun(t, &Multi{Workloads: []Workload{
		&Thrasher{Pages: 400, Write: true, Passes: 1, Seed: 3},
		&Thrasher{Pages: 300, Write: false, Passes: 1, Seed: 4},
	}, QuantumRefs: 50})
	refs := m.Stats().VM.Refs
	if refs == 0 || int64(len(rec.Refs)) != int64(refs) {
		t.Fatalf("recorder saw %d references, the VM counted %d", len(rec.Refs), refs)
	}
	m.NewSegment("after", int64(m.Config().PageSize)).Touch(0, false)
	if got := len(rec.Refs); int64(got) != int64(refs)+1 {
		t.Fatalf("recorder saw %d references after the run, want %d: the hook was not restored", got, refs+1)
	}
}

func TestMultiValidation(t *testing.T) {
	if _, err := Measure(baseCfg(), &Multi{}); err == nil {
		t.Fatal("empty multi accepted")
	}
}

func TestMultiMemberErrorPropagates(t *testing.T) {
	w := &Multi{Workloads: []Workload{
		&Thrasher{Pages: 64, Passes: 1, Seed: 1},
		&Compare{N: 0, Band: 0}, // invalid
	}}
	if _, err := Measure(baseCfg(), w); err == nil {
		t.Fatal("member error not propagated")
	}
}

func TestMultiName(t *testing.T) {
	w := &Multi{Workloads: []Workload{
		&Thrasher{Pages: 1, Write: true},
		&Sort{Mode: SortRandom},
	}}
	if w.Name() != "multi+thrasher_rw+sort_random" {
		t.Fatalf("Name = %q", w.Name())
	}
}

func TestCompareDistanceAgainstReference(t *testing.T) {
	// The banded DP must agree with a plain full-matrix edit distance when
	// the band covers the whole matrix.
	w := &Compare{N: 64, Band: 160, MutationRate: 0.15, Seed: 13}
	if _, err := Measure(baseCfg(), w); err != nil {
		t.Fatal(err)
	}
	// Recompute the inputs the workload generated.
	rng := rand.New(rand.NewSource(13))
	a := make([]byte, 64)
	for i := range a {
		a[i] = byte('a' + rng.Intn(26))
	}
	b := append([]byte(nil), a...)
	for i := range b {
		if rng.Float64() < 0.15 {
			b[i] = byte('a' + rng.Intn(26))
		}
	}
	want := editDistanceRef(a, b)
	if got := w.Distance(); got != want {
		t.Fatalf("banded distance %d, reference %d", got, want)
	}
}

// editDistanceRef is a straightforward O(n^2) Levenshtein distance.
func editDistanceRef(a, b []byte) uint32 {
	n := len(b)
	prev := make([]uint32, n+1)
	cur := make([]uint32, n+1)
	for j := 0; j <= n; j++ {
		prev[j] = uint32(j)
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = uint32(i)
		for j := 1; j <= n; j++ {
			sub := prev[j-1]
			if a[i-1] != b[j-1] {
				sub++
			}
			best := sub
			if d := prev[j] + 1; d < best {
				best = d
			}
			if d := cur[j-1] + 1; d < best {
				best = d
			}
			cur[j] = best
		}
		prev, cur = cur, prev
	}
	return prev[n]
}

// Determinism: identical configuration and seed must produce bit-identical
// virtual times — the property that makes every number in EXPERIMENTS.md
// reproducible. Gold exercises the most internal map-based bookkeeping, so
// it is the canary for accidental map-iteration dependence.
func TestDeterminismAcrossRuns(t *testing.T) {
	for _, mk := range []func() Workload{
		func() Workload { return &Thrasher{Pages: 700, Write: true, Passes: 2, Seed: 5} },
		func() Workload {
			return &Gold{Messages: 1500, WordsPerMessage: 16, VocabWords: 800,
				Queries: 700, Phase: GoldCold, Seed: 5}
		},
		func() Workload { return &Sort{Bytes: mb / 2, Mode: SortRandom, VocabWords: 500, Seed: 5} },
	} {
		name := mk().Name()
		var times []int64
		for run := 0; run < 2; run++ {
			st, err := Measure(ccCfg(), mk())
			if err != nil {
				t.Fatal(err)
			}
			times = append(times, int64(st.Time))
		}
		if times[0] != times[1] {
			t.Errorf("%s: nondeterministic virtual time: %d vs %d", name, times[0], times[1])
		}
	}
}
