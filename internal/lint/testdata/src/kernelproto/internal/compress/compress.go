// Package compress stands in for the codec registry, whose lock is the one
// row of kernelproto's table of real locks: runner workers look codecs up
// while start-up code registers one. The row names that lock and nothing
// else, so every other lock here is a finding.
package compress

import "sync"

var (
	regMu    sync.RWMutex
	registry = map[string]int{}
)

// Register takes the registry lock: no finding.
func Register(name string, c int) {
	regMu.Lock()
	defer regMu.Unlock()
	registry[name] = c
}

// Lookup takes it for reading: no finding.
func Lookup(name string) int {
	regMu.RLock()
	defer regMu.RUnlock()
	return registry[name]
}

// statsMu is a second package-level lock in the same package.
var statsMu sync.Mutex

// Count takes it.
func Count() {
	statsMu.Lock()   // want `takes sync\.Mutex\.Lock outside internal/runner`
	statsMu.Unlock() // want `takes sync\.Mutex\.Unlock outside internal/runner`
}

// shard has a field named like the registry lock; only the package-level
// variable is in the table.
type shard struct{ regMu sync.Mutex }

// Lock takes the field.
func (s *shard) Lock() {
	s.regMu.Lock() // want `takes sync\.Mutex\.Lock outside internal/runner`
}

// Shadow declares a local named like the registry lock.
func Shadow() {
	var regMu sync.Mutex
	regMu.Lock() // want `takes sync\.Mutex\.Lock outside internal/runner`
}
