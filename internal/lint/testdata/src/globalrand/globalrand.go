// Package gr is a golden fixture for walltime's ban on the process-global
// math/rand source, which the runtime seeds from the host.
package gr

import (
	"math/rand"
	"time"
)

const fixedSeed = 42

type opts struct{ Seed int64 }

// bad uses the process-global source and a seed read from the host.
func bad() {
	_ = rand.Intn(10)                                   // want `rand\.Intn uses the process-global source`
	rand.Shuffle(4, func(i, j int) {})                  // want `rand\.Shuffle uses the process-global source`
	rand.Seed(99)                                       // want `rand\.Seed uses the process-global source`
	_ = rand.Float64()                                  // want `rand\.Float64 uses the process-global source`
	_ = rand.New(rand.NewSource(time.Now().UnixNano())) // want `wall-clock call time\.Now`
}

// pick smuggles the global source past a call-only check: nothing here is
// called, and every later pick(n) draws from the shared stream.
var pick = rand.Intn // want `rand\.Intn referenced as a value`

// badValue hands the global source around as a function value.
func badValue(xs []int) {
	f := rand.Shuffle // want `rand\.Shuffle referenced as a value`
	f(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	_ = pick(3)
}

// goodMethodValue binds a method of a seeded *rand.Rand: the value
// carries its own explicit stream.
func goodMethodValue(seed int64) int {
	draw := rand.New(rand.NewSource(seed)).Intn
	return draw(6)
}

// good threads explicit seeds, the pattern internal/trace and
// internal/workload already use.
func good(o opts, seed int64) {
	r := rand.New(rand.NewSource(fixedSeed))
	_ = r.Intn(10) // methods on a seeded *rand.Rand are fine
	_ = rand.New(rand.NewSource(seed + 1))
	_ = rand.New(rand.NewSource(o.Seed))
	_ = rand.New(rand.NewSource(int64(seed)))
	_ = rand.New(rand.NewSource(derive(seed))) // a seed computed from a seed is still explicit
	_ = rand.NewZipf(r, 1.2, 1, 100)
}

func derive(seed int64) int64 { return seed*31 + 7 }

// goodShadow names its seeded generator after the package: rand.Intn below
// is a method on the local *rand.Rand, not the process-global function.
func goodShadow(seed int64) int {
	rand := rand.New(rand.NewSource(seed))
	return rand.Intn(4)
}
