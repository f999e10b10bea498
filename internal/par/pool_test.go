package par

import (
	"fmt"
	"runtime"
	"sync"
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

// BenchmarkPoolContended measures Get/Put round-trips under full
// parallelism — the shape of concurrent query serving hitting the
// shared scratch pools. Every core count must stay at 0 allocs/op;
// TestPoolContendedZeroAllocs enforces it.
func BenchmarkPoolContended(b *testing.B) {
	p := NewPool[[]byte](512)
	for i := 0; i < 256; i++ {
		p.Put(make([]byte, 0, 1024))
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			v, ok := p.Get()
			if !ok {
				v = make([]byte, 0, 1024)
			}
			p.Put(v)
		}
	})
}

// TestPoolContendedZeroAllocs gates BenchmarkPoolContended's body, called
// not copied, at 0 allocs/op on every core count.
func TestPoolContendedZeroAllocs(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		res := testing.Benchmark(BenchmarkPoolContended)
		if res.N == 0 {
			t.Fatal("BenchmarkPoolContended did not complete")
		}
		if a := res.AllocsPerOp(); a != 0 {
			t.Errorf("BenchmarkPoolContended = %d allocs/op, want 0", a)
		}
	})
}
