package par

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
)

// Len reports the pooled items.
func (p *Pool[T]) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.items)
}

// atProcs runs fn as a subtest at GOMAXPROCS 1, 2 and 8: pool behaviour
// must not depend on the core count (a shard pick keyed to it once made
// Put→Get miss on every power-of-two machine).
func atProcs(t *testing.T, fn func(t *testing.T)) {
	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			prev := runtime.GOMAXPROCS(procs)
			t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
			fn(t)
		})
	}
}

func TestPoolGetPut(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		p := NewPool[[]int](4)
		if _, ok := p.Get(); ok {
			t.Fatal("empty pool returned an item")
		}
		// Every Put must be visible to the very next Get, however many
		// times the cycle repeats.
		for i := 0; i < 100; i++ {
			p.Put(make([]int, 0, 8))
			v, ok := p.Get()
			if !ok || cap(v) != 8 {
				t.Fatalf("cycle %d: Get = cap %d, %v; want cap 8, true", i, cap(v), ok)
			}
		}
		if p.Len() != 0 {
			t.Fatalf("Len = %d after draining, want 0", p.Len())
		}
	})
}

func TestPoolLIFO(t *testing.T) {
	p := NewPool[int](4)
	for i := 1; i <= 3; i++ {
		p.Put(i)
	}
	for want := 3; want >= 1; want-- {
		if v, ok := p.Get(); !ok || v != want {
			t.Fatalf("Get = %d, %v; want %d, true", v, ok, want)
		}
	}
}

func TestPoolBounded(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		p := NewPool[int](2)
		for i := 0; i < 10000; i++ {
			p.Put(i)
		}
		if n := p.Len(); n != 2 {
			t.Fatalf("pool retains %d items, capacity is 2", n)
		}
	})
}

func TestPoolZeroesFreedSlots(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		p := NewPool[*int](4)
		x := new(int)
		p.Put(x)
		if _, ok := p.Get(); !ok {
			t.Fatal("lost the pooled item")
		}
		// The slot the item occupied must no longer reference it.
		for _, v := range p.items[:cap(p.items)] {
			if v == x {
				t.Fatal("freed slot still references the item")
			}
		}
	})
}

func TestPoolConcurrent(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		p := NewPool[[]byte](16)
		var wg sync.WaitGroup
		for g := 0; g < 16; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 1000; i++ {
					b, ok := p.Get()
					if !ok {
						b = make([]byte, 0, 64)
					}
					b = append(b[:0], 1, 2, 3)
					p.Put(b)
				}
			}()
		}
		wg.Wait()
		if n := p.Len(); n < 1 || n > 16 {
			t.Fatalf("pool holds %d items after 16 workers, want 1..16", n)
		}
	})
}

// contendedPool returns one Get/Put round-trip on a pool warmed with
// 256 buffers: the body BenchmarkPoolContended and
// TestPoolContendedZeroAllocs both run.
func contendedPool() func() {
	p := NewPool[[]byte](512)
	for i := 0; i < 256; i++ {
		p.Put(make([]byte, 0, 1024))
	}
	return func() {
		v, ok := p.Get()
		if !ok {
			v = make([]byte, 0, 1024)
		}
		p.Put(v)
	}
}

// BenchmarkPoolContended measures Get/Put round-trips under full
// parallelism — the shape of concurrent query serving hitting the
// shared scratch pools. TestPoolContendedZeroAllocs holds its body to 0
// allocations at every core count.
func BenchmarkPoolContended(b *testing.B) {
	cycle := contendedPool()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			cycle()
		}
	})
}

// allocsContended counts the heap allocations of iters calls of body on
// each of workers goroutines. The goroutines start before the count and
// spin until it begins, and the count spins until they finish: parking
// a goroutine can allocate its wait record, which is the runtime's
// allocation, not the body's. The caller turns the collector off.
func allocsContended(workers, iters int, body func()) uint64 {
	var start atomic.Bool
	var done atomic.Int32
	for w := 0; w < workers; w++ {
		go func() {
			for !start.Load() {
				runtime.Gosched()
			}
			for i := 0; i < iters; i++ {
				body()
			}
			done.Add(1)
		}()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start.Store(true)
	for done.Load() < int32(workers) {
		runtime.Gosched()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// allocSink keeps the gate's injected allocations on the heap.
var allocSink atomic.Pointer[[64]byte]

// TestPoolContendedZeroAllocs gates BenchmarkPoolContended's body,
// called not copied: one goroutine per core makes a fixed number of
// round-trips, counted with runtime.ReadMemStats and the collector off.
// At every core count the least of three counts must be 0 per
// round-trip, the ceiling testing.Benchmark's allocs/op held it to:
// goroutines parked on the pool's lock can make the runtime allocate
// their wait records, a handful per count at most. The count must also
// see one injected allocation per round-trip.
func TestPoolContendedZeroAllocs(t *testing.T) {
	const iters = 10_000
	cycle := contendedPool()
	atProcs(t, func(t *testing.T) {
		procs := runtime.GOMAXPROCS(0)
		runtime.GC()
		gc := debug.SetGCPercent(-1)
		defer debug.SetGCPercent(gc)
		got := allocsContended(procs, iters, cycle)
		for try := 0; try < 2 && got > 0; try++ {
			got = min(got, allocsContended(procs, iters, cycle))
		}
		injected := allocsContended(procs, iters, func() {
			cycle()
			allocSink.Store(new([64]byte))
		})
		ops := uint64(procs * iters)
		if got/ops != 0 {
			t.Errorf("%d round-trips made %d allocations, want 0 per round-trip", ops, got)
		}
		if injected/ops < 1 {
			t.Errorf("%d round-trips with an injected allocation each counted %d allocations", ops, injected)
		}
	})
}
