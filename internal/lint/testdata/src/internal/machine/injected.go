// Package machine is a golden fixture that stands in for
// compcache/internal/machine (the loader maps this directory to an import
// path ending in internal/machine, the scope of the package-scoped
// analyzers). It proves the headline regression is caught without editing
// the real machine package: a wall-clock read injected into the simulation
// core.
package machine

import "time"

// Injected is the canonical virtual-time-purity regression: host time
// leaking into the machine package.
func Injected() int64 {
	return time.Now().UnixNano() // want `wall-clock call time\.Now`
}
