// Package effects is the unit-test fixture for the allocation-site scan:
// one function per allocation kind. No golden test selects this package;
// effects_test.go asserts on the scanned sites and flows directly.
package effects

// CompositeLit allocates a slice literal: steady.
func CompositeLit() []int {
	return []int{1, 2, 3}
}

// AppendFresh grows a function-local slice: steady.
func AppendFresh(n int) []int {
	var out []int
	for i := 0; i < n; i++ {
		out = append(out, i)
	}
	return out
}

// AppendParam appends into the caller's buffer: amortized, and the
// result escapes to the caller.
func AppendParam(dst []byte, b byte) []byte {
	return append(dst, b)
}

// StringConv converts string to []byte: steady.
func StringConv(s string) []byte {
	return []byte(s)
}

func use(v interface{}) int {
	if v == nil {
		return 0
	}
	return 1
}

// Boxing passes a concrete struct to an interface parameter: steady.
func Boxing(p struct{ a, b int }) int {
	return use(p)
}

// Closure returns a capturing closure: steady.
func Closure() func() int {
	n := 7
	return func() int { return n }
}

// MapWrite inserts into a caller-owned map: amortized (rehash).
func MapWrite(m map[int]int, k, v int) {
	m[k] = v
}

// Clean does arithmetic only: no sites, no flows.
func Clean(a, b int) int {
	return a + b
}
