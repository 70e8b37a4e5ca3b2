package placement

import (
	"sync"
	"sync/atomic"
)

// parallelFor runs fn(i) for every i in [0, n) across at most workers
// goroutines. Work items are claimed from an atomic counter, so the
// call balances uneven item costs; fn must write its result into an
// i-indexed slot (never shared state) so that accumulation stays
// deterministic regardless of completion order. workers <= 1 (or n <=
// 1) degrades to a plain loop on the calling goroutine.
func parallelFor(n, workers int, fn func(i int)) {
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
