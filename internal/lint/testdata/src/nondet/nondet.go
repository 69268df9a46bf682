// Package nd is a golden fixture for the nondet taint analyzer: every
// bad case routes a nondeterminism source (host clock, map iteration
// order, heap address, environment) into an obs or exp sink, and every
// good case shows the sanctioned way to export the same shape of data.
package nd

import (
	"fmt"
	"math/rand"
	"os"
	"slices"
	"sort"
	"time"

	"compcache/nondet/internal/exp"
	"compcache/nondet/internal/obs"
)

// BadClock formats the host clock straight into a table row.
func BadClock(t *exp.Table) {
	t.AddRow(fmt.Sprintf("%v", time.Now())) // want `wall-clock call time\.Now` `nondeterministic time\.Now host-clock value flows into exp\.AddRow \(BadClock → exp\.AddRow\)`
}

// BadMapOrder exports whichever key the map happens to yield last; no
// append or print happens inside the loop, so only dataflow sees it.
func BadMapOrder(b *obs.Bus, m map[string]int) {
	last := ""
	for k := range m { // want `nondeterministic iteration order of map m flows into obs\.Emit \(BadMapOrder → obs\.Emit\)`
		last = k
	}
	b.Emit(last)
}

// BadPointer prints a heap address into a metric.
func BadPointer(b *obs.Bus, p *int) {
	b.Emit(fmt.Sprintf("%p", p)) // want `nondeterministic fmt\.Sprintf %p pointer formatting flows into obs\.Emit \(BadPointer → obs\.Emit\)`
}

// BadEnv lets the host environment name a table row.
func BadEnv(t *exp.Table) {
	t.AddRow(os.Getenv("CC_HOST")) // want `nondeterministic os\.Getenv environment value flows into exp\.AddRow \(BadEnv → exp\.AddRow\)`
}

// stamp returns a host-clock string; the taint travels the return edge.
func stamp() string {
	return fmt.Sprintf("%v", time.Now()) // want `wall-clock call time\.Now`
}

// BadTransitive reports taint that arrives through a helper's return
// value; the source description names the callee.
func BadTransitive(t *exp.Table) {
	t.AddRow(stamp()) // want `nondeterministic time\.Now host-clock value \(returned by stamp\) flows into exp\.AddRow \(BadTransitive → exp\.AddRow\)`
}

// report forwards its argument into the table; the sink-parameter fixed
// point is what lets the caller's taint find it.
func report(t *exp.Table, v string) {
	t.AddRow(v)
}

// BadDeepSink reaches AddRow two hops away; the chain names the route.
func BadDeepSink(t *exp.Table) {
	report(t, os.Getenv("CC_SEED")) // want `nondeterministic os\.Getenv environment value flows into exp\.AddRow \(BadDeepSink → nd\.report → exp\.AddRow\)`
}

// GoodSorted collects map keys and sorts before exporting: the sort is
// the sanitizer that restores determinism.
func GoodSorted(t *exp.Table, m map[string]int) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	t.AddRow(keys...)
}

// GoodSeeded threads an explicit seed; methods on a seeded *rand.Rand
// are deterministic and not sources.
func GoodSeeded(b *obs.Bus, seed int64) {
	r := rand.New(rand.NewSource(seed))
	b.Emit(fmt.Sprintf("%d", r.Intn(100)))
}

// GoodVirtual exports a value derived only from deterministic inputs.
func GoodVirtual(t *exp.Table, pages int) {
	t.AddRow(fmt.Sprintf("%d", 4096*pages))
}

// BadContains hands the collected keys to slices.Contains, which is
// spelled like a sanitizer and orders nothing.
func BadContains(t *exp.Table, m map[string]int) {
	var keys []string
	for k := range m { // want `nondeterministic iteration order of map m flows into exp\.AddRow \(BadContains → exp\.AddRow\)`
		keys = append(keys, k) // want `append inside map iteration`
	}
	if slices.Contains(keys, "x") {
		t.AddRow(keys...)
	}
}

// BadClone copies the keys on their way into the row; a copy of map
// order is map order.
func BadClone(t *exp.Table, m map[string]int) {
	var keys []string
	for k := range m { // want `nondeterministic iteration order of map m flows into exp\.AddRow \(BadClone → exp\.AddRow\)`
		keys = append(keys, k) // want `append inside map iteration`
	}
	t.AddRow(slices.Clone(keys)...)
}
