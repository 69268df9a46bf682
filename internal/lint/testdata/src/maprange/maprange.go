// Package mr is a golden fixture for the maprange analyzer: every range
// over a map is a finding, and so is every map iterator that does not go
// straight into a sort.
package mr

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"

	"compcache/maprange/ext"
)

// badAppend collects map keys; whatever it does with them afterwards, the
// loop runs in map order.
func badAppend(m map[string]int) []string {
	var out []string
	for k := range m { // want `range over a map`
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// badCount does order-independent work, and is a finding all the same: the
// rule is the shape, not what the body does with it.
func badCount(m map[string]int) int {
	total := 0
	for _, v := range m { // want `range over a map`
		total += v
	}
	return total
}

// badClosure ranges over a map inside a function literal.
func badClosure(m map[string]int) func() int {
	return func() int {
		n := 0
		for range m { // want `range over a map`
			n++
		}
		return n
	}
}

// badInit ranges over a map in a package-level initialiser, inside no
// declared function.
var badInit = func(m map[int]bool) (n int) {
	for k := range m { // want `range over a map`
		n += k
	}
	return n
}

// badKeysSeq ranges over the keys iterator, which yields in map order.
func badKeysSeq(m map[string]int) []string {
	var out []string
	for k := range maps.Keys(m) { // want `maps\.Keys yields in random map order`
		out = append(out, k)
	}
	return out
}

// badCollect materialises the values in map order.
func badCollect(m map[string]int) []int {
	return slices.Collect(maps.Values(m)) // want `maps\.Values yields in random map order`
}

// badAll hands the pair iterator to a loop.
func badAll(m map[string]int) (s string) {
	for k, v := range maps.All(m) { // want `maps\.All yields in random map order`
		s += fmt.Sprint(k, v)
	}
	return s
}

// badValue hands the iterator constructor around as a value.
var badValue = maps.Keys[map[string]int] // want `maps\.Keys yields in random map order`

// badWrapped sorts something else: only the direct argument of a sort is
// ordered.
func badWrapped(m map[string]int) []string {
	return slices.Sorted(keysOf(m))
}

func keysOf(m map[string]int) func(func(string) bool) {
	return maps.Keys(m) // want `maps\.Keys yields in random map order`
}

// The three plants behind maprange: each loses an order that a golden only
// sometimes sees.

// badQuantileBounds (M1) fills a fleet sweep's bounds from a map and never
// sorts them.
func badQuantileBounds(bounds map[float64]int) []float64 {
	var qs []float64
	for q := range bounds { // want `range over a map`
		qs = append(qs, q)
	}
	return qs
}

// badGaugeNames (M2) reuses one slice for three maps' names; only the
// first and the last are sorted.
func badGaugeNames(counters, gauges, hists map[string]int) (c, g, h []string) {
	names := make([]string, 0, len(counters))
	for name := range counters { // want `range over a map`
		names = append(names, name)
	}
	sort.Strings(names)
	c = slices.Clone(names)
	names = names[:0]
	for name := range gauges { // want `range over a map`
		names = append(names, name)
	}
	g = slices.Clone(names)
	names = names[:0]
	for name := range hists { // want `range over a map`
		names = append(names, name)
	}
	sort.Strings(names)
	return c, g, slices.Clone(names)
}

// badTwoRows (M3) ranges a two-key map into a table's rows: small maps keep
// insertion order most of the time, so a golden sees the swap only now and
// then.
func badTwoRows(small, large string) []string {
	var rows []string
	for _, label := range map[int]string{0: small, 1: large} { // want `range over a map`
		rows = append(rows, label)
	}
	return rows
}

// The shapes below are the ones only the type checker gets right.

func table() map[string]int { return map[string]int{} }

// badCallResult ranges over a map that is never named: it is the result of
// a call.
func badCallResult() (n int) {
	for range table() { // want `range over a map`
		n++
	}
	return n
}

type counts map[string]int

// badNamedType ranges over a variable whose type is a named map type.
func badNamedType(c counts) (n int) {
	for range c { // want `range over a map`
		n++
	}
	return n
}

// badForeignField ranges over a map field declared in another package.
func badForeignField(ix ext.Index) (n int) {
	for range ix.ByKey { // want `range over a map`
		n++
	}
	return n
}

// frame has a slice field that shares its name with ext.Index's map field.
type frame struct{ ByKey []string }

// goodSliceField ranges over the slice: a fixed order, no finding.
func goodSliceField(f frame) []string {
	var out []string
	for _, x := range f.ByKey {
		out = append(out, x)
	}
	return out
}

// goodSortedKeys is the idiom: the keys, sorted.
func goodSortedKeys(m map[string]int) []string {
	return slices.Sorted(maps.Keys(m))
}

// goodGaugeNames is M2 mended: each family's names sorted on their own.
func goodGaugeNames(counters, gauges, hists map[string]int) (c, g, h []string) {
	return slices.Sorted(maps.Keys(counters)), slices.Sorted(maps.Keys(gauges)), slices.Sorted(maps.Keys(hists))
}

// goodSortedValues orders the values with a comparator.
func goodSortedValues(m map[string]int) []int {
	return slices.SortedFunc(maps.Values(m), cmp.Compare[int])
}

// goodSortedStable orders the pairs' keys stably, through parentheses.
func goodSortedStable(m map[string]int) []string {
	return slices.SortedStableFunc((maps.Keys(m)), strings.Compare)
}

// goodCloneCopy copies maps: neither call observes the order.
func goodCloneCopy(m map[string]int) map[string]int {
	out := maps.Clone(m)
	maps.Copy(out, map[string]int{"x": 1})
	return out
}

// goodIndex reads, writes and deletes entries by key.
func goodIndex(m map[string]int, keys []string) int {
	n := 0
	for _, k := range keys {
		n += m[k]
		m[k] = 0
		delete(m, k)
	}
	return n
}
