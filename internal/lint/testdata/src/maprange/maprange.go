// Package mr is a golden fixture for the maprange analyzer.
package mr

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"compcache/maprange/ext"
)

type runStats struct{ Extra map[string]float64 }

// badAppend collects map keys without ever sorting them.
func badAppend(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k) // want `append inside map iteration`
	}
	return out
}

// badPrint writes directly from map iteration, a trace summary's shape.
func badPrint() {
	segs := map[int]int{}
	for seg, pages := range segs {
		fmt.Printf("%d: %d\n", seg, pages) // want `fmt\.Printf inside map iteration`
	}
}

// badBuilder builds a string through a field-typed map.
func badBuilder(s runStats) string {
	var b strings.Builder
	for k := range s.Extra {
		b.WriteString(k) // want `WriteString inside map iteration`
	}
	return b.String()
}

// badConcat accumulates a string with +=.
func badConcat(m map[string]string) string {
	out := ""
	for _, v := range m {
		out += v + "\n" // want `string built inside map iteration`
	}
	return out
}

// badWrite pushes bytes from map iteration straight through a writer.
func badWrite(w io.Writer, m map[string][]byte) {
	for _, v := range m {
		w.Write(v)             // want `Write inside map iteration`
		io.WriteString(w, "x") // want `io\.WriteString inside map iteration`
	}
}

// badEncode streams records in random map order through an encoder.
func badEncode(enc *json.Encoder, m map[string]int) {
	for k := range m {
		enc.Encode(k) // want `Encode inside map iteration`
	}
}

// goodCollectSort is the canonical deterministic idiom: collect, sort,
// then use.
func goodCollectSort(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// goodSortSlice collects values and orders them with a comparator, the
// fs.Sync shape.
func goodSortSlice(m map[string]int) []int {
	var vals []int
	for _, v := range m {
		vals = append(vals, v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	return vals
}

// sortKeys stands in for a package-local sorting helper (the swap
// package's sortPageKeys shape).
func sortKeys(keys []string) { sort.Strings(keys) }

// goodHelperSort collects keys and orders them through a local helper
// whose name marks it as a sort.
func goodHelperSort(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sortKeys(keys)
	return keys
}

// goodCount does commutative accumulation; order cannot matter.
func goodCount(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// goodMapToMap writes into another map; the result is order-independent.
func goodMapToMap(m map[string]int) map[string]int {
	out := map[string]int{}
	for k, v := range m {
		out[k] = 2 * v
	}
	return out
}

// goodSliceRange ranges a slice: never a finding, appends and prints are
// fine in deterministic order.
func goodSliceRange(xs []string) []string {
	var out []string
	for _, x := range xs {
		out = append(out, x)
		fmt.Println(x)
	}
	return out
}

// The shapes below are the ones only the type checker gets right; a
// spelling-based guess misses the first four and flags the fifth.

func table() map[string]int { return map[string]int{} }

// badCallResult ranges over a map that is never named: it is the result of
// a call.
func badCallResult() []string {
	var out []string
	for k := range table() {
		out = append(out, k) // want `append inside map iteration`
	}
	return out
}

type counts map[string]int

// badNamedType ranges over a variable whose type is a named map type.
func badNamedType(c counts) []string {
	var out []string
	for k := range c {
		out = append(out, k) // want `append inside map iteration`
	}
	return out
}

// badForeignField ranges over a map field declared in another package.
func badForeignField(ix ext.Index) []string {
	var out []string
	for k := range ix.ByKey {
		out = append(out, k) // want `append inside map iteration`
	}
	return out
}

// badConcatPlain builds a string with no literal in sight; the += is a
// string concatenation because its target is a string.
func badConcatPlain(m map[string]string) string {
	out := ""
	for _, v := range m {
		out += v // want `string built inside map iteration`
	}
	return out
}

// frame has a slice field that shares its name with runStats.Extra, a map
// (the core.Cache shape: frame.entries is a slice, Cache.entries a map).
type frame struct{ Extra []string }

// goodSliceField ranges over the slice: deterministic order, no finding.
func goodSliceField(f frame) []string {
	var out []string
	for _, x := range f.Extra {
		out = append(out, x)
	}
	return out
}

// The shapes below are spelled like sorts and are not: a sort.X or
// slices.X call that does not order its argument leaves the append in map
// order.

// badContains hands the collected keys to a membership test.
func badContains(m map[string]int) bool {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want `append inside map iteration`
	}
	return slices.Contains(keys, "x")
}

// badClone copies the keys on their way out; a copy of map order is map
// order.
func badClone(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want `append inside map iteration`
	}
	return slices.Clone(keys)
}

// badSearch binary-searches keys that nobody sorted.
func badSearch(m map[string]int) int {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want `append inside map iteration`
	}
	return sort.SearchStrings(keys, "x")
}

// badReverse reverses map order, which is still map order.
func badReverse(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want `append inside map iteration`
	}
	slices.Reverse(keys)
	return keys
}

type finder struct{}

func (finder) Strings(keys []string) int { return len(keys) }

// badShadowedSort calls a method on a local variable that happens to be
// named sort.
func badShadowedSort(m map[string]int) int {
	sort := finder{}
	var keys []string
	for k := range m {
		keys = append(keys, k) // want `append inside map iteration`
	}
	return sort.Strings(keys)
}
