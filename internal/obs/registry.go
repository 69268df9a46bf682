package obs

import (
	"slices"
	"strings"
	"time"
)

// Counter is a monotonically increasing count. A nil *Counter is valid and
// ignores Add, so probe handles can be cached from a nil bus.
type Counter struct {
	name string
	v    uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v += n
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value reports the current count (0 for nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a point-in-time level (frames held, pages resident). A nil *Gauge
// is valid and ignores Set.
type Gauge struct {
	name string
	v    int64
}

// Set records the current level.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v = v
	}
}

// Value reports the current level (0 for nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v
}

// DefaultBuckets are the fixed virtual-latency bucket upper bounds every
// histogram uses: a 1-2-5 decade ladder from 1µs to 5s (the upper decades
// exist for fleet runs, where a whole cluster queues on one server). Fixed
// buckets keep
// histograms byte-comparable across runs and machines — the determinism
// contract extends to every exported artifact.
var DefaultBuckets = [...]time.Duration{
	1 * time.Microsecond, 2 * time.Microsecond, 5 * time.Microsecond,
	10 * time.Microsecond, 20 * time.Microsecond, 50 * time.Microsecond,
	100 * time.Microsecond, 200 * time.Microsecond, 500 * time.Microsecond,
	1 * time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond,
	10 * time.Millisecond, 20 * time.Millisecond, 50 * time.Millisecond,
	100 * time.Millisecond, 200 * time.Millisecond, 500 * time.Millisecond,
	1 * time.Second, 2 * time.Second, 5 * time.Second,
}

// Histogram accumulates virtual durations into fixed buckets. A nil
// *Histogram is valid and ignores Observe — the disabled-bus hot path.
type Histogram struct {
	name   string
	bounds []time.Duration // upper bounds; one overflow bucket follows
	counts []uint64        // len(bounds)+1
	count  uint64
	sum    time.Duration
	min    time.Duration
	max    time.Duration
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && d > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.count++
	h.sum += d
	if h.count == 1 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
}

// Count reports the number of observations (0 for nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Registry holds one machine's metrics. The zero Registry is ready to use;
// each Bus embeds one. Each family is a slice kept sorted by name, so a
// snapshot walks it in order and needs no sort. Lookups happen at wiring
// time (subsystems cache the returned handles), so the hot path never
// searches.
type Registry struct {
	counters []*Counter
	gauges   []*Gauge
	hists    []*Histogram
}

// metric is a handle the registry files by name.
type metric interface{ metricName() string }

func (c *Counter) metricName() string   { return c.name }
func (g *Gauge) metricName() string     { return g.name }
func (h *Histogram) metricName() string { return h.name }

// find returns the position of the handle named name in the name-sorted
// family, or where it would go, and whether it is there.
func find[M metric](family []M, name string) (int, bool) {
	return slices.BinarySearchFunc(family, name, func(m M, name string) int {
		return strings.Compare(m.metricName(), name)
	})
}

// lookup returns the handle named name, inserting the one mk makes where it
// sorts when there is none.
func lookup[M metric](family *[]M, name string, mk func() M) M {
	i, ok := find(*family, name)
	if !ok {
		*family = slices.Insert(*family, i, mk())
	}
	return (*family)[i]
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	return lookup(&r.counters, name, func() *Counter { return &Counter{name: name} })
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	return lookup(&r.gauges, name, func() *Gauge { return &Gauge{name: name} })
}

// Histogram returns the named histogram with the default virtual-latency
// buckets, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	return lookup(&r.hists, name, func() *Histogram {
		return &Histogram{
			name:   name,
			bounds: DefaultBuckets[:],
			counts: make([]uint64, len(DefaultBuckets)+1),
		}
	})
}

// CounterSnapshot is one counter's exported state.
type CounterSnapshot struct {
	Name  string
	Value uint64
}

// GaugeSnapshot is one gauge's exported state.
type GaugeSnapshot struct {
	Name  string
	Value int64
}

// Bucket is one histogram bucket: the count of observations at most Le.
type Bucket struct {
	Le    time.Duration // upper bound; -1 marks the overflow bucket
	Count uint64
}

// HistogramSnapshot is one histogram's exported state.
type HistogramSnapshot struct {
	Name    string
	Count   uint64
	Sum     time.Duration
	Min     time.Duration
	Max     time.Duration
	Buckets []Bucket // per-bucket (non-cumulative) counts, empty buckets omitted
}

// Mean reports the average observed duration (0 when empty).
func (h HistogramSnapshot) Mean() time.Duration {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / time.Duration(h.Count)
}

// Snapshot is a deterministic capture of a registry: every slice is sorted
// by name, so two identical runs export byte-identical snapshots.
type Snapshot struct {
	Counters   []CounterSnapshot
	Gauges     []GaugeSnapshot
	Histograms []HistogramSnapshot
}

// Snapshot captures the registry's current state in sorted order.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{}
	for _, c := range r.counters {
		s.Counters = append(s.Counters, CounterSnapshot{Name: c.name, Value: c.v})
	}
	for _, g := range r.gauges {
		s.Gauges = append(s.Gauges, GaugeSnapshot{Name: g.name, Value: g.v})
	}
	for _, h := range r.hists {
		hs := HistogramSnapshot{Name: h.name, Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
		for i, c := range h.counts {
			if c == 0 {
				continue
			}
			le := time.Duration(-1)
			if i < len(h.bounds) {
				le = h.bounds[i]
			}
			hs.Buckets = append(hs.Buckets, Bucket{Le: le, Count: c})
		}
		s.Histograms = append(s.Histograms, hs)
	}
	return s
}

// Hist returns the named histogram snapshot (ok=false when absent) — the
// lookup tests and harnesses use to assert on one metric.
func (s *Snapshot) Hist(name string) (HistogramSnapshot, bool) {
	if s == nil {
		return HistogramSnapshot{}, false
	}
	for _, h := range s.Histograms {
		if h.Name == name {
			return h, true
		}
	}
	return HistogramSnapshot{}, false
}

// Counter returns the named counter's value (0 when absent).
func (s *Snapshot) Counter(name string) uint64 {
	if s == nil {
		return 0
	}
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}
