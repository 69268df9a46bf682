// Package sw is the sharedwrite golden fixture: every write shape a go
// closure can make to captured state, sanctioned and not. It sits under an
// internal/runner path because that is where kernelproto lets a goroutine be.
package sw

// counters is shared state for the field-write case.
type counters struct {
	N int
}

// goodIndexSlotted is the contract's sanctioned shape: each goroutine
// owns slot i of a pre-sized slice.
func goodIndexSlotted(n int) []int {
	results := make([]int, n)
	done := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		i := i
		go func() {
			results[i] = 2 * i
			done <- struct{}{}
		}()
	}
	for i := 0; i < n; i++ {
		<-done
	}
	return results
}

// goodChannel hands results over a channel instead.
func goodChannel(n int) int {
	out := make(chan int, n)
	for i := 0; i < n; i++ {
		i := i
		go func() {
			v := 2 * i // locals declared inside the closure are fine
			out <- v
		}()
	}
	total := 0
	for i := 0; i < n; i++ {
		total += <-out
	}
	return total
}

// badScalar writes a captured int from the goroutine.
func badScalar(n int) int {
	total := 0
	done := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		i := i
		go func() {
			total = total + i // want `goroutine writes captured variable total`
			done <- struct{}{}
		}()
	}
	for i := 0; i < n; i++ {
		<-done
	}
	return total
}

// badIncrement bumps a captured counter.
func badIncrement(n int) int {
	hits := 0
	done := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		go func() {
			hits++ // want `goroutine increments captured variable hits`
			done <- struct{}{}
		}()
	}
	for i := 0; i < n; i++ {
		<-done
	}
	return hits
}

// badMap writes a captured map: unordered shared state.
func badMap(keys []string) map[string]int {
	m := make(map[string]int)
	done := make(chan struct{}, len(keys))
	for i, k := range keys {
		i, k := i, k
		go func() {
			m[k] = i // want `goroutine writes captured map m`
			done <- struct{}{}
		}()
	}
	for range keys {
		<-done
	}
	return m
}

// badField writes a field of a captured struct.
func badField() counters {
	var c counters
	done := make(chan struct{})
	go func() {
		c.N = 1 // want `goroutine writes field N of captured c`
		done <- struct{}{}
	}()
	<-done
	return c
}

// badPointer writes through a captured pointer.
func badPointer(p *int) {
	done := make(chan struct{})
	go func() {
		*p = 1 // want `goroutine writes through captured pointer p`
		done <- struct{}{}
	}()
	<-done
}
