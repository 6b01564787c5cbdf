// Package parallel provides the shared-memory work-distribution primitives
// used by the parallel phases of SBP: chunked parallel-for loops over
// goroutines (the Go analogue of the paper's OpenMP parallel loops) and a
// work/span cost accounting used to model strong scaling on machines with
// fewer cores than the paper's 128-core test node.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultWorkers returns the degree of parallelism used when a caller
// passes workers <= 0: the current GOMAXPROCS setting.
func DefaultWorkers(workers int) int {
	if workers > 0 {
		return workers
	}
	return runtime.GOMAXPROCS(0)
}

// clampWorkers caps the worker count at the iteration count so that no
// idle goroutines are spawned for small inputs, and never returns less
// than one.
func clampWorkers(workers, n int) int {
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// ForChunked runs body(lo, hi, worker) for each worker's contiguous range
// [lo, hi) of [0, n). Ranges differ in size by at most one. If workers is 1
// or n is small, the body runs on the calling goroutine to avoid overhead.
func ForChunked(n, workers int, body func(lo, hi, worker int)) {
	workers = clampWorkers(DefaultWorkers(workers), n)
	if n <= 0 {
		return
	}
	if workers <= 1 {
		body(0, n, 0)
		return
	}
	chunk := n / workers
	rem := n % workers
	forWorkers(workers, func(w int) {
		lo := w * chunk
		if w < rem {
			lo += w
		} else {
			lo += rem
		}
		hi := lo + chunk
		if w < rem {
			hi++
		}
		body(lo, hi, w)
	})
}

// forWorkers runs body(w) for w in [0, workers) on one goroutine each,
// propagating the first panic to the caller.
func forWorkers(workers int, body func(w int)) {
	var wg sync.WaitGroup
	var panicVal atomic.Value
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panicVal.Store(p)
				}
			}()
			body(w)
		}(w)
	}
	wg.Wait()
	if p := panicVal.Load(); p != nil {
		panic(p)
	}
}
