package experiments

import (
	"sync"
	"sync/atomic"
)

// runParallel runs fn(i) for every i in [0, n) across at most workers
// goroutines, claiming items from an atomic counter so uneven cell
// costs balance (Optimal cells run orders of magnitude longer than
// heuristic ones). fn must write results into i-indexed slots, which
// keeps row order deterministic regardless of completion order.
// workers <= 1 (or n <= 1) degrades to a plain loop.
func runParallel(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// firstError returns the first non-nil error in errs, matching the
// error a serial loop over the same rows would have surfaced.
func firstError(errs []error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}
