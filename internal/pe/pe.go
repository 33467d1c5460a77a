// Package pe executes logical processing entities (PEs) on a bounded pool
// of worker goroutines. It is the stand-in for the MPI layer of the paper:
// because the generators are communication-free, a PE is a pure function of
// (seed, P, peID), so the number of workers and the execution order must
// not influence the output — a property the test suite verifies for every
// generator.
package pe

import (
	"runtime"
	"sync"
)

// ForEach executes fn(pe) for every pe in [0, P) on a bounded worker pool
// (workers <= 0 selects GOMAXPROCS) and returns the results indexed by PE
// id.
func ForEach[T any](P, workers int, fn func(pe int) T) []T {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > P {
		workers = P
	}
	out := make([]T, P)
	if P == 0 {
		return out
	}
	if workers <= 1 {
		for i := 0; i < P; i++ {
			out[i] = fn(i)
		}
		return out
	}
	var next int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := int(next)
				next++
				mu.Unlock()
				if i >= P {
					return
				}
				out[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	return out
}
