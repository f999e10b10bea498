package par

import "sync"

// Pool is a bounded LIFO free list for hot-path scratch objects, shared
// across concurrent queries. It differs from sync.Pool in two ways that
// matter under sustained multi-query load:
//
//   - retention: sync.Pool is drained by the garbage collector, so a
//     serving workload that allocates (output arrays, reports) sees its
//     scratch pools emptied every GC cycle and re-pays the allocation
//     spikes. A Pool retains its items until displaced, keeping the
//     steady-state scratch paths at zero allocations per operation even
//     with GC pressure from neighboring queries.
//   - typing: items are stored as T, not interface{}, so value types
//     (e.g. slice headers) are pooled without a boxing allocation per
//     Put.
//
// One mutex guards the list: the critical section is a slice push or
// pop, and a Get always finds what the last Put left, at every
// GOMAXPROCS. Puts beyond the capacity are dropped for the collector,
// which bounds the pool's footprint. The zero Pool is not usable;
// construct with NewPool or NewSizedPool.
type Pool[T any] struct {
	mu            sync.Mutex
	items         []T
	cap           int
	size          func(T) int
	held, maxSize int // the pooled items' summed sizes, and its bound
}

// NewPool returns a pool that retains up to capacity items (<= 0
// selects 256).
func NewPool[T any](capacity int) *Pool[T] {
	return NewSizedPool(capacity, 0, func(T) int { return 0 })
}

// NewSizedPool returns a pool that retains up to capacity items (<= 0
// selects 256) whose sizes sum to at most maxSize: a Put that would
// take the sum past it is dropped. An item's size must not change
// while it is pooled.
func NewSizedPool[T any](capacity, maxSize int, size func(T) int) *Pool[T] {
	if capacity <= 0 {
		capacity = 256
	}
	return &Pool[T]{cap: capacity, size: size, maxSize: maxSize}
}

// Get pops the most recently pooled item, reporting whether one was
// available. On false the caller allocates; the zero T returned
// alongside is meaningless.
func (p *Pool[T]) Get() (v T, ok bool) {
	p.mu.Lock()
	if n := len(p.items); n > 0 {
		v, ok = p.items[n-1], true
		var zero T
		p.items[n-1] = zero // release the reference to the collector
		p.items = p.items[:n-1]
		p.held -= p.size(v)
	}
	p.mu.Unlock()
	return v, ok
}

// Put offers an item back; a full pool drops it. The caller must not
// use v afterward.
func (p *Pool[T]) Put(v T) {
	n := p.size(v)
	p.mu.Lock()
	if len(p.items) < p.cap && p.held+n <= p.maxSize {
		p.items = append(p.items, v)
		p.held += n
	}
	p.mu.Unlock()
}
