// Float reductions over a map, next to their deterministic fix.

package mr

import (
	"maps"
	"slices"
)

// badSumMap reduces floats in random map order: float addition is not
// associative, so the last bits of the total depend on the order.
func badSumMap(m map[string]float64) (total float64) {
	for _, v := range m { // want `range over a map`
		total += v
	}
	return total
}

// goodSorted sums in key order.
func goodSorted(m map[string]float64) (total float64) {
	for _, k := range slices.Sorted(maps.Keys(m)) {
		total += m[k]
	}
	return total
}

// goodAscending sums the values in ascending order, a fixed order too.
func goodAscending(m map[string]float64) (total float64) {
	for _, v := range slices.Sorted(maps.Values(m)) {
		total += v
	}
	return total
}
