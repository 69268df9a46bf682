package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"compcache/internal/compress"
	"compcache/internal/machine"
	"compcache/internal/vm"
)

// The traced pass records host-time spans from the benchmark's own files,
// around the two seams the simulator exposes: the vm.Pager a machine
// installs in its VM (everything below a fault: machine, core, policy, swap,
// fs, device) and the compress.Codec the machine looks up by name. The
// simulator is not modified and does not know it is being traced; a traced
// rep must reproduce the untraced digests.

type spanKind uint8

const (
	spanLeg          spanKind = iota // one leg, root of its tree
	spanMachineNew                   // machine.New / cluster.New
	spanMachineCheck                 // CheckInvariants + Stats
	spanPageIn                       // Machine.PageIn through the pager seam
	spanPageOut                      // Machine.PageOut through the pager seam
	spanCompress                     // Codec.Compress
	spanDecompress                   // Codec.Decompress
	spanKinds
)

var spanNames = [spanKinds]string{
	"leg", "machine.new", "machine.check", "machine.pagein", "machine.pageout",
	"compress.compress", "compress.decompress",
}

// span is one timed interval. parent indexes the tracer's span slice (-1 for
// a leg root); start and end are hostNanos values.
type span struct {
	kind       spanKind
	leg        int32
	parent     int32
	start, end int64
}

// tracer holds one traced rep's spans in a slice allocated before the rep
// starts, so recording never grows memory inside the timed interval unless
// the estimate was short. A nil *tracer is the untraced run: every method is
// a no-op and no wrapper is installed.
//
// Exactly one simulator goroutine runs at any moment (single-machine legs
// run on the caller; fleet actors pass the kernel's baton over channels), so
// the tracer needs no lock.
type tracer struct {
	spans  []span
	pagers []*tracePager // wrappers of the running leg's machines
	corpus *corpus       // non-nil while the codec layer drivers' corpus is captured
}

// corpus collects images of the pages handed to Compress, into buffers
// allocated beforehand, a bounded number per leg so every application that
// pages contributes.
type corpus struct {
	pages  [][]byte
	used   int
	perLeg []int
}

const (
	corpusPages  = 1024
	corpusPerLeg = 160
)

func newCorpus(legs int) *corpus {
	c := &corpus{pages: make([][]byte, corpusPages), perLeg: make([]int, legs)}
	for i := range c.pages {
		c.pages[i] = make([]byte, pageSize)
	}
	return c
}

func (c *corpus) take(leg int32, page []byte) {
	if c.used < len(c.pages) && c.perLeg[leg] < corpusPerLeg && len(page) == pageSize {
		copy(c.pages[c.used], page)
		c.used++
		c.perLeg[leg]++
	}
}

// activeTracer is what the registered traced codecs record into. The codec
// registry is process-global and a codec value carries no per-run state, so
// the traced codecs find the current rep's tracer here; nil outside a traced
// rep.
var activeTracer *tracer

func newTracer(capacity int) *tracer {
	return &tracer{spans: make([]span, 0, capacity)}
}

func (t *tracer) open(kind spanKind, leg, parent int32) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{kind: kind, leg: leg, parent: parent, start: hostNanos()})
	return int32(len(t.spans) - 1)
}

func (t *tracer) close(i int32) {
	if t != nil {
		t.spans[i].end = hostNanos()
	}
}

// codecName maps a codec to its traced twin during a traced rep.
func (t *tracer) codecName(name string) string {
	if t == nil {
		return name
	}
	if name == "" {
		name = "lzrw1"
	}
	return "traced." + name
}

// attach wraps m's pager and returns the function that unhooks it when the
// leg ends.
func (t *tracer) attach(m *machine.Machine, leg, root int32) func() {
	if t == nil {
		return func() {}
	}
	p := &tracePager{inner: m, t: t, leg: leg, root: root}
	m.VM.SetPager(p)
	t.pagers = append(t.pagers, p)
	return func() {
		for i, q := range t.pagers {
			if q == p {
				t.pagers = append(t.pagers[:i], t.pagers[i+1:]...)
				break
			}
		}
	}
}

// tracePager is the vm.Pager seam. A machine's PageIn can evict (a neighbor
// prefetch making room), so spans nest and each wrapper keeps a stack.
type tracePager struct {
	inner vm.Pager
	t     *tracer
	leg   int32
	root  int32
	stack []pagerFrame
}

// pagerFrame is one open pager span and the page buffer it was handed, which
// is how a codec call finds its parent (see codecParent).
type pagerFrame struct {
	span int32
	buf  *byte
}

func (p *tracePager) push(kind spanKind, data []byte) int32 {
	parent := p.root
	if n := len(p.stack); n > 0 {
		parent = p.stack[n-1].span
	}
	i := p.t.open(kind, p.leg, parent)
	p.stack = append(p.stack, pagerFrame{span: i, buf: &data[0]})
	return i
}

func (p *tracePager) pop(i int32) {
	p.t.close(i)
	p.stack = p.stack[:len(p.stack)-1]
}

func (p *tracePager) PageIn(pg *vm.Page, data []byte) (vm.Source, error) {
	i := p.push(spanPageIn, data)
	src, err := p.inner.PageIn(pg, data)
	p.pop(i)
	return src, err
}

func (p *tracePager) PageOut(pg *vm.Page, data []byte) error {
	i := p.push(spanPageOut, data)
	err := p.inner.PageOut(pg, data)
	p.pop(i)
	return err
}

func (p *tracePager) Dirtied(pg *vm.Page) { p.inner.Dirtied(pg) }

// codecParent finds the pager span a codec call belongs to. In a fleet,
// several machines have a pager span open at once — one is running, the
// others are parked in a kernel wait — and the shared codec value cannot
// tell which machine called it. The page buffer can: PageOut compresses the
// buffer it was handed and PageIn decompresses into the one it was handed.
func (t *tracer) codecParent(page []byte) (leg, parent int32) {
	buf := &page[:1][0]
	for _, p := range t.pagers {
		for i := len(p.stack) - 1; i >= 0; i-- {
			if p.stack[i].buf == buf {
				return p.leg, p.stack[i].span
			}
		}
	}
	// A codec call from outside a pager span (the compressed file cache);
	// attribute it to the running leg's root.
	if len(t.pagers) > 0 {
		return t.pagers[0].leg, t.pagers[0].root
	}
	return 0, -1
}

// tracedCodec is the compress.Codec seam, registered once per process as
// "traced.<name>". Outside a traced rep it only forwards.
type tracedCodec struct{ inner compress.Codec }

func (c tracedCodec) Name() string                { return "traced." + c.inner.Name() }
func (c tracedCodec) MaxCompressedSize(n int) int { return c.inner.MaxCompressedSize(n) }

func (c tracedCodec) Compress(dst, src []byte) []byte {
	t := activeTracer
	if t == nil || len(src) == 0 {
		return c.inner.Compress(dst, src)
	}
	leg, parent := t.codecParent(src)
	if t.corpus != nil {
		t.corpus.take(leg, src)
	}
	i := t.open(spanCompress, leg, parent)
	out := c.inner.Compress(dst, src)
	t.close(i)
	return out
}

func (c tracedCodec) Decompress(dst, src []byte) ([]byte, error) {
	t := activeTracer
	if t == nil || cap(dst) == 0 {
		return c.inner.Decompress(dst, src)
	}
	leg, parent := t.codecParent(dst)
	i := t.open(spanDecompress, leg, parent)
	out, err := c.inner.Decompress(dst, src)
	t.close(i)
	return out, err
}

// tracedRegistered records that the traced twins are in the codec registry.
var tracedRegistered bool

// registerTracedCodecs makes every stock codec available under its traced
// name, once: compress.Register panics on a duplicate.
func registerTracedCodecs() error {
	if tracedRegistered {
		return nil
	}
	for _, name := range codecNames {
		c, err := compress.Lookup(name)
		if err != nil {
			return err
		}
		compress.Register(tracedCodec{inner: c})
	}
	tracedRegistered = true
	return nil
}

// traceSummary is what one traced rep's spans add up to.
type traceSummary struct {
	self [spanKinds]float64 // host seconds: span durations minus child cover
	// Percentiles of whole PageIn and PageOut spans, in microseconds.
	pageinP50, pageinP99, pageoutP50, pageoutP99 float64
}

// analyze computes self times: a span's duration minus the part of that
// interval its child spans cover. The spans are in start order, so one pass
// merges each parent's children as it meets them. On a single machine
// children never overlap and this is the plain sum; in a fleet, members'
// pager spans do overlap in host time (one runs while the others are parked
// in a kernel wait inside theirs), so a fleet leg's own self time is the
// time during which no member was inside its pager, and a pager span's self
// time includes the time its machine spent parked.
func (t *tracer) analyze() traceSummary {
	var st traceSummary
	var pageinUs, pageoutUs []float64
	covered := make([]int64, len(t.spans)) // child-covered nanoseconds per span
	until := make([]int64, len(t.spans))   // end of the covered prefix per span
	for _, s := range t.spans {
		if s.parent < 0 {
			continue
		}
		if from := max(s.start, until[s.parent]); s.end > from {
			covered[s.parent] += s.end - from
			until[s.parent] = s.end
		}
	}
	for i, s := range t.spans {
		d := s.end - s.start
		st.self[s.kind] += float64(d-covered[i]) / 1e9
		switch s.kind {
		case spanPageIn:
			pageinUs = append(pageinUs, float64(d)/1e3)
		case spanPageOut:
			pageoutUs = append(pageoutUs, float64(d)/1e3)
		}
	}
	sort.Float64s(pageinUs)
	sort.Float64s(pageoutUs)
	st.pageinP50, st.pageinP99 = quantile(pageinUs, 0.50), quantile(pageinUs, 0.99)
	st.pageoutP50, st.pageoutP99 = quantile(pageoutUs, 0.50), quantile(pageoutUs, 0.99)
	return st
}

// quantile reads the q-th value of an ascending slice (0 when empty).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[min(int(q*float64(len(sorted))), len(sorted)-1)]
}

// traceFileCap bounds the JSONL file: the thrasher workloads record millions
// of spans, and the file is for reading the shape of a run, not for
// recomputing the self times (those use every span, in memory).
const traceFileCap = 250_000

// writeJSONL writes the spans, one object per line, after timing has ended.
// A final record says how many spans were left out.
func (t *tracer) writeJSONL(dir, workload string) (err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace_"+workload+".jsonl"))
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	n := min(len(t.spans), traceFileCap)
	for i, s := range t.spans[:n] {
		fmt.Fprintf(w, `{"id":%d,"name":%q,"leg":%d,"parent":%d,"start_ns":%d,"end_ns":%d}`+"\n",
			i, spanNames[s.kind], s.leg, s.parent, s.start, s.end)
	}
	if n < len(t.spans) {
		fmt.Fprintf(w, `{"truncated":%d}`+"\n", len(t.spans)-n)
	}
	return w.Flush()
}
