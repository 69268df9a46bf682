package obs

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"compcache/internal/sim"
)

func TestNilBusSafe(t *testing.T) {
	var b *Bus
	if b.Enabled(ClassFault) {
		t.Fatal("nil bus reports enabled")
	}
	b.Emit(Event{Class: ClassFault})
	if b.Len() != 0 || b.Dropped() != 0 || b.Mask() != 0 {
		t.Fatal("nil bus has state")
	}
	if b.Events() != nil {
		t.Fatal("nil bus returned events")
	}
	if b.Registry() != nil || b.Snapshot() != nil {
		t.Fatal("nil bus returned registry/snapshot")
	}
	// Handles from a nil bus are nil and must absorb all operations.
	c, g, h := b.Counter("x"), b.Gauge("x"), b.Histogram("x")
	c.Add(3)
	c.Inc()
	g.Set(9)
	h.Observe(time.Millisecond)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatal("nil handles accumulated state")
	}
}

func TestMaskFiltering(t *testing.T) {
	b := NewBus(Options{Classes: ClassFault | ClassFlush})
	if !b.Enabled(ClassFault) || !b.Enabled(ClassFlush) {
		t.Fatal("enabled classes not reported")
	}
	if b.Enabled(ClassEvict) {
		t.Fatal("disabled class reported enabled")
	}
	b.Emit(Event{Class: ClassFault})
	b.Emit(Event{Class: ClassEvict}) // filtered
	b.Emit(Event{Class: ClassFlush})
	got := b.Events()
	if len(got) != 2 || got[0].Class != ClassFault || got[1].Class != ClassFlush {
		t.Fatalf("events = %v, want [fault flush]", got)
	}
}

func TestZeroOptionsSelectAll(t *testing.T) {
	b := NewBus(Options{})
	if b.Mask() != ClassAll {
		t.Fatalf("mask = %v, want all", b.Mask())
	}
	if cap(b.ring) != DefaultRingSize {
		t.Fatalf("ring cap = %d, want %d", cap(b.ring), DefaultRingSize)
	}
}

// "none" is a mask that records nothing, though the zero mask in Options is
// every class: ParseClasses answers ClassNone for it. "all", the empty
// string and the zero Options are unchanged.
func TestParseClassesNoneRecordsNothing(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Class
	}{
		{"none", ClassNone},
		{" none , none ", ClassNone},
		{"none,fault", ClassFault},
		{"all", ClassAll},
		{"", ClassAll},
		{",", ClassAll},
		{"fault|flush", ClassFault | ClassFlush},
	} {
		got, err := ParseClasses(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseClasses(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	none := NewBus(Options{Classes: ClassNone})
	for i := 0; i < classCount; i++ {
		if none.Enabled(1 << i) {
			t.Errorf("ClassNone enables %v", Class(1<<i))
		}
		none.Emit(Event{Class: 1 << i})
	}
	if none.Len() != 0 || len(none.Events()) != 0 {
		t.Errorf("a ClassNone bus recorded %d events", none.Len())
	}
	if got := ClassNone.String(); got != "none" {
		t.Errorf("ClassNone = %q", got)
	}
	all := NewBus(Options{Classes: ClassAll})
	for i := 0; i < classCount; i++ {
		all.Emit(Event{Class: 1 << i})
	}
	if all.Len() != classCount || NewBus(Options{}).Mask() != ClassAll {
		t.Errorf("ClassAll recorded %d of %d classes; zero Options mask %v", all.Len(), classCount, NewBus(Options{}).Mask())
	}
}

func TestRingWrap(t *testing.T) {
	b := NewBus(Options{RingSize: 4})
	for i := 0; i < 10; i++ {
		b.Emit(Event{T: sim.Time(i), Class: ClassFault})
	}
	if b.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", b.Dropped())
	}
	got := b.Events()
	if len(got) != 4 {
		t.Fatalf("len = %d, want 4", len(got))
	}
	for i, e := range got {
		if e.T != sim.Time(6+i) {
			t.Fatalf("event %d has T=%d, want %d (oldest dropped, order kept)", i, e.T, 6+i)
		}
	}
}

// TestRingExactCapacityBoundaries pins the wrap behavior at the exact
// edges: filling the ring to capacity drops nothing and keeps emission
// order; one event past capacity drops exactly the oldest; a full second
// lap drops exactly one capacity's worth and retains the last lap in
// order. Off-by-ones here silently truncate traces from the wrong end.
func TestRingExactCapacityBoundaries(t *testing.T) {
	const ringSize = 8
	fill := func(n int) *Bus {
		b := NewBus(Options{RingSize: ringSize})
		for i := 0; i < n; i++ {
			b.Emit(Event{T: sim.Time(i), Class: ClassFault})
		}
		return b
	}
	cases := []struct {
		name        string
		emitted     int
		wantDropped uint64
		wantFirst   sim.Time
	}{
		{"exactly-capacity", ringSize, 0, 0},
		{"capacity-plus-one", ringSize + 1, 1, 1},
		{"twice-capacity", 2 * ringSize, ringSize, ringSize},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := fill(tc.emitted)
			if b.Dropped() != tc.wantDropped {
				t.Fatalf("dropped = %d, want %d", b.Dropped(), tc.wantDropped)
			}
			if b.Len() != ringSize {
				t.Fatalf("len = %d, want %d (ring stays full once filled)", b.Len(), ringSize)
			}
			got := b.Events()
			if len(got) != ringSize {
				t.Fatalf("Events() returned %d events, want %d", len(got), ringSize)
			}
			for i, e := range got {
				if want := tc.wantFirst + sim.Time(i); e.T != want {
					t.Fatalf("event %d has T=%d, want %d (oldest-first after wrap)", i, e.T, want)
				}
			}
			// Conservation at the boundary: every emission is either
			// retained or counted as dropped, never both, never neither.
			if got := uint64(b.Len()) + b.Dropped(); got != uint64(tc.emitted) {
				t.Fatalf("retained+dropped = %d, want %d emitted", got, tc.emitted)
			}
		})
	}
}

func TestRegistryReuse(t *testing.T) {
	var r Registry
	c1 := r.Counter("a")
	c1.Inc()
	if c2 := r.Counter("a"); c2 != c1 || c2.Value() != 1 {
		t.Fatal("counter not reused")
	}
	h1 := r.Histogram("h")
	h1.Observe(time.Microsecond)
	if h2 := r.Histogram("h"); h2 != h1 || h2.Count() != 1 {
		t.Fatal("histogram not reused")
	}
	g1 := r.Gauge("g")
	g1.Set(7)
	if g2 := r.Gauge("g"); g2 != g1 || g2.Value() != 7 {
		t.Fatal("gauge not reused")
	}
}

func TestHistogramBuckets(t *testing.T) {
	var r Registry
	h := r.Histogram("svc")
	h.Observe(500 * time.Nanosecond)  // first bucket (≤1µs)
	h.Observe(1500 * time.Nanosecond) // ≤2µs
	h.Observe(10 * time.Second)       // past the 5s top of the ladder: overflow
	s := r.Snapshot()
	hs, ok := s.Hist("svc")
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	if hs.Count != 3 || hs.Min != 500*time.Nanosecond || hs.Max != 10*time.Second {
		t.Fatalf("summary = %+v", hs)
	}
	want := []Bucket{
		{Le: time.Microsecond, Count: 1},
		{Le: 2 * time.Microsecond, Count: 1},
		{Le: -1, Count: 1},
	}
	if !reflect.DeepEqual(hs.Buckets, want) {
		t.Fatalf("buckets = %v, want %v", hs.Buckets, want)
	}
	if hs.Mean() != hs.Sum/3 {
		t.Fatalf("mean = %v", hs.Mean())
	}
}

func TestSnapshotSorted(t *testing.T) {
	var r Registry
	r.Counter("zeta").Inc()
	r.Counter("alpha").Add(2)
	r.Gauge("mid").Set(1)
	r.Gauge("aaa").Set(2)
	s := r.Snapshot()
	if s.Counters[0].Name != "alpha" || s.Counters[1].Name != "zeta" {
		t.Fatalf("counters not sorted: %v", s.Counters)
	}
	if s.Gauges[0].Name != "aaa" || s.Gauges[1].Name != "mid" {
		t.Fatalf("gauges not sorted: %v", s.Gauges)
	}
	if s.Counter("alpha") != 2 || s.Counter("missing") != 0 {
		t.Fatal("snapshot counter lookup")
	}
}

func TestClassString(t *testing.T) {
	if got := ClassFault.String(); got != "fault" {
		t.Fatalf("ClassFault = %q", got)
	}
	if got := (ClassCCHit | ClassFlush).String(); got != "cc_hit|flush" {
		t.Fatalf("mask = %q", got)
	}
	if got := Class(0).String(); got != "none" {
		t.Fatalf("zero = %q", got)
	}
	if got := SubNet.String(); got != "netdev" {
		t.Fatalf("SubNet = %q", got)
	}
}

func TestExportersDeterministic(t *testing.T) {
	events := []Event{
		{T: 100, Class: ClassFault, Sub: SubVM, Seg: 1, Page: 2, Dur: 3 * time.Microsecond, Aux: FaultSrcCC},
		{T: 250, Class: ClassDiskWrite, Sub: SubDisk, Bytes: 4096, Dur: time.Millisecond, Aux: 120},
	}
	var a, b bytes.Buffer
	if err := WriteEventsJSONL(&a, events); err != nil {
		t.Fatal(err)
	}
	if err := WriteEventsJSONL(&b, events); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("JSONL not deterministic")
	}
	want := `{"t":100,"class":"fault","sub":"vm","seg":1,"page":2,"bytes":0,"dur":3000,"aux":1}` + "\n" +
		`{"t":250,"class":"disk_write","sub":"disk","seg":0,"page":0,"bytes":4096,"dur":1000000,"aux":120}` + "\n"
	if a.String() != want {
		t.Fatalf("JSONL:\n%s\nwant:\n%s", a.String(), want)
	}
}

func TestSnapshotCSV(t *testing.T) {
	var r Registry
	r.Counter("events.fault").Add(5)
	r.Gauge("cc.frames").Set(12)
	r.Histogram("vm.fault_service").Observe(2 * time.Microsecond)
	s := r.Snapshot()
	out := s.String()
	wantLines := []string{
		"kind,name,value",
		"counter,events.fault,5",
		"gauge,cc.frames,12",
		"hist,vm.fault_service,count=1 sum=2000 min=2000 max=2000 le[2000]=1",
	}
	got := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if !reflect.DeepEqual(got, wantLines) {
		t.Fatalf("snapshot CSV:\n%s", out)
	}
	var nilSnap *Snapshot
	if nilSnap.String() != "" {
		t.Fatal("nil snapshot renders non-empty")
	}
	if err := nilSnap.WriteCSV(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkDisabledProbe measures the per-probe cost when tracing is off:
// the overhead budget is "a few host nanoseconds" (one nil test).
func BenchmarkDisabledProbe(b *testing.B) {
	var bus *Bus
	for i := 0; i < b.N; i++ {
		if bus.Enabled(ClassFault) {
			bus.Emit(Event{Class: ClassFault})
		}
	}
}

// BenchmarkEnabledEmit measures the cost of recording one event on an
// enabled bus with a warm ring.
func BenchmarkEnabledEmit(b *testing.B) {
	bus := NewBus(Options{RingSize: 1 << 12})
	e := Event{T: 1, Class: ClassFault, Sub: SubVM, Page: 42, Dur: time.Microsecond}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bus.Emit(e)
	}
}
