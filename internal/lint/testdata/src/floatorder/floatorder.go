// Package fo is the floatorder golden fixture: float reductions in the
// two positions Go leaves unordered, next to their deterministic fixes.
package fo

import "sort"

// badSumMap reduces floats in random map order.
func badSumMap(m map[string]float64) float64 {
	total := 0.0
	for _, v := range m {
		total += v // want `float accumulation inside map iteration`
	}
	return total
}

// badSpelled spells the accumulation out; still order-sensitive.
func badSpelled(m map[string]float64) float64 {
	total := 0.0
	for _, v := range m {
		total = total + v // want `float accumulation inside map iteration`
	}
	return total
}

// goodSorted materializes and sorts the keys first.
func goodSorted(m map[string]float64) float64 {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	total := 0.0
	for _, k := range keys {
		total += m[k]
	}
	return total
}

// goodIntCount is integer accumulation: commutative, silent.
func goodIntCount(m map[string]float64) int {
	n := 0
	for range m {
		n += 1
	}
	return n
}

// goodLocalReset accumulates into a body-local; it resets every
// iteration and cannot carry order dependence out of the loop.
func goodLocalReset(m map[string][]float64) int {
	n := 0
	for _, vs := range m {
		sub := 0.0
		for _, v := range vs {
			sub += v
		}
		if sub > 1 {
			n += 1
		}
	}
	return n
}
