// Package par holds the small worker-pool primitives shared by the
// parallel execution paths and the ILP planners' task queue. Every
// construct here is deterministic in its *results*: parallelism only
// changes which goroutine performs a piece of work, never what the piece
// of work computes, and callers merge per-worker results with explicit
// deterministic tie-breaks.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a parallelism knob to an effective worker count:
// n >= 1 is used as given (1 means sequential), and n <= 0 means "auto" —
// one worker per available CPU.
func Workers(n int) int {
	if n >= 1 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Do runs fn(w) for w in [0, workers) concurrently and waits for all of
// them. With workers <= 1 it calls fn(0) inline — no goroutine is spawned,
// so the sequential path stays allocation- and scheduler-free.
func Do(workers int, fn func(w int)) {
	if workers <= 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fn(w)
		}(w)
	}
	wg.Wait()
}

// ForEach runs fn(i, w) for every i in [0, n), distributing indices over
// up to `workers` goroutines w via an atomic counter. Each index runs
// exactly once; with workers <= 1 the loop runs inline in index order.
func ForEach(n, workers int, fn func(i, w int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i, 0)
		}
		return
	}
	var next atomic.Int64
	Do(workers, func(w int) {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i, w)
		}
	})
}
