// Package runner is the goroutine half of the floatorder golden fixture. It
// sits under an internal/runner path because that is where kernelproto lets a
// goroutine be: a float reduced in scheduler order is still wrong there.
package runner

// badParallel reduces in scheduler order; sharedwrite objects to the
// captured write too — one line, two broken contracts.
func badParallel(vs []float64) float64 {
	sum := 0.0
	done := make(chan struct{}, len(vs))
	for _, v := range vs {
		v := v
		go func() {
			sum += v // want `float accumulation across goroutines` `goroutine writes captured variable sum`
			done <- struct{}{}
		}()
	}
	for range vs {
		<-done
	}
	return sum
}

// goodPartials index-slots per-goroutine partial sums and reduces after
// the join, in index order.
func goodPartials(vs []float64) float64 {
	parts := make([]float64, len(vs))
	done := make(chan struct{}, len(vs))
	for i, v := range vs {
		i, v := i, v
		go func() {
			parts[i] = v
			done <- struct{}{}
		}()
	}
	for range vs {
		<-done
	}
	total := 0.0
	for _, p := range parts {
		total += p
	}
	return total
}
