// Package cluster models the shared-nothing execution environment of the
// paper's Section 2.1: a set of database instances (nodes), each holding a
// local partition of every distributed array, plus a coordinator node that
// manages the centralized system catalog (node list, array schemas, and
// data distribution).
package cluster

import (
	"fmt"
	"maps"
	"math"
	"sync"
	"sync/atomic"

	"shufflejoin/internal/array"
	"shufflejoin/internal/stats"
)

// NodeID identifies a cluster node. Nodes are numbered 0..K-1; the
// coordinator role is held by node 0 (the role only matters for catalog
// access, which is free in this in-process model).
type NodeID = int

// Placement assigns each stored chunk of an array to the node that hosts
// it. Every stored chunk key of the array must appear exactly once.
type Placement map[array.ChunkKey]NodeID

// Distributed is an array partitioned over the cluster: the logical array
// plus the chunk-to-node placement. The chunks themselves stay in the
// Array; nodes address their local partition through the placement.
//
// A Distributed is treated as immutable once queried (the facade seals
// arrays before loading them): derived data — the per-node chunk order,
// the data fingerprint and attribute histograms — is computed once on
// first use and cached for the array's lifetime.
type Distributed struct {
	Array     *array.Array
	Placement Placement

	indexOnce sync.Once
	local     [][]array.ChunkKey // node -> its chunk keys, C-order
	fprint    uint64             // digest of grid, per-chunk cells, placement

	histMu    sync.Mutex
	attrHists map[string]*stats.Histogram
}

// LocalChunks returns the keys of the chunks the given node hosts, in
// C-order: each node's share of one global C-order walk of the array,
// which is the order the slice mappers visit a node's chunks in. Built
// once with DataFingerprint; the slice is shared and must not be
// modified.
func (d *Distributed) LocalChunks(node NodeID) []array.ChunkKey {
	d.indexOnce.Do(d.index)
	if node < 0 || node >= len(d.local) {
		return nil
	}
	return d.local[node]
}

// DataFingerprint digests everything physical planning depends on about
// the stored data: the schema string, the chunk grid (sorted keys, in
// their text form), each chunk's cell count, the chunk-to-node placement,
// and the fingerprint of the per-chunk cell-count histogram (the skew
// profile). Two Distributed values with equal fingerprints present the
// same planning problem; a re-ingest under a different skew profile
// changes per-chunk cell counts and therefore the fingerprint. Computed
// once and cached.
func (d *Distributed) DataFingerprint() uint64 {
	d.indexOnce.Do(d.index)
	return d.fprint
}

// index makes the one C-order pass over the stored chunks that builds the
// per-node key lists and the data fingerprint.
func (d *Distributed) index() {
	keys := d.Array.SortedKeys()
	var minCells, maxCells float64
	sizes := make([]float64, len(keys))
	for i, k := range keys {
		node := d.Placement[k]
		for node >= len(d.local) {
			d.local = append(d.local, nil)
		}
		d.local[node] = append(d.local[node], k)
		cells := float64(d.Array.Chunks[k].Len())
		sizes[i] = cells
		if i == 0 || cells < minCells {
			minCells = cells
		}
		if i == 0 || cells > maxCells {
			maxCells = cells
		}
	}

	h := stats.NewHistogram(minCells, maxCells, 64)
	const prime64 = 1099511628211
	f := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			f ^= v & 0xff
			f *= prime64
			v >>= 8
		}
	}
	mixBytes := func(b []byte) {
		for _, c := range b {
			f ^= uint64(c)
			f *= prime64
		}
	}
	mixBytes([]byte(d.Array.Schema.String()))
	mix(uint64(len(keys)))
	var text [64]byte
	for i, k := range keys {
		h.Add(sizes[i])
		mixBytes(d.Array.Schema.AppendKey(text[:0], k))
		mix(uint64(sizes[i]))
		mix(uint64(d.Placement[k]))
	}
	mix(h.Fingerprint())
	d.fprint = f
}

// AttrHistogram returns a 64-bucket equi-width histogram of the named
// attribute's values — the statistic the paper's engine keeps in its
// catalog, used for join-dimension inference and selectivity estimation.
// Nil for unknown attributes and for attributes with no finite values
// (string columns have no numeric histogram either, but their AsFloat is
// 0, so they histogram degenerately; callers filter by type). Histograms
// are computed on first request and cached per attribute, so per-query
// planning cost does not include a data scan.
func (d *Distributed) AttrHistogram(attrName string) *stats.Histogram {
	ai := d.Array.Schema.AttrIndex(attrName)
	if ai < 0 {
		return nil
	}
	d.histMu.Lock()
	defer d.histMu.Unlock()
	if h, ok := d.attrHists[attrName]; ok {
		return h
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	d.Array.Scan(func(_ []int64, attrs []array.Value) bool {
		v := attrs[ai].AsFloat()
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
		return true
	})
	var h *stats.Histogram
	if lo <= hi {
		h = stats.NewHistogram(lo, hi, 64)
		d.Array.Scan(func(_ []int64, attrs []array.Value) bool {
			h.Add(attrs[ai].AsFloat())
			return true
		})
	}
	if d.attrHists == nil {
		d.attrHists = make(map[string]*stats.Histogram)
	}
	d.attrHists[attrName] = h
	return h
}

// Validate checks that the placement covers exactly the stored chunks and
// stays inside the cluster.
func (d *Distributed) Validate(k int) error {
	if len(d.Placement) != len(d.Array.Chunks) {
		return fmt.Errorf("cluster: placement covers %d chunks, array stores %d",
			len(d.Placement), len(d.Array.Chunks))
	}
	for key, node := range d.Placement {
		if _, ok := d.Array.Chunks[key]; !ok {
			return fmt.Errorf("cluster: placement names unknown chunk %s", d.Array.Schema.AppendKey(nil, key))
		}
		if node < 0 || node >= k {
			return fmt.Errorf("cluster: chunk %s placed on node %d outside [0,%d)",
				d.Array.Schema.AppendKey(nil, key), node, k)
		}
	}
	return nil
}

// PlacementPolicy decides which node hosts each chunk at load time.
type PlacementPolicy int

const (
	// RoundRobin deals chunks to nodes in C-order of their keys: the
	// default SciDB-style distribution.
	RoundRobin PlacementPolicy = iota
	// HashChunks places each chunk by a hash of its key, decorrelating
	// placement from array space.
	HashChunks
)

// Distribute partitions an array over k nodes with the given policy.
func Distribute(a *array.Array, k int, policy PlacementPolicy) *Distributed {
	p := make(Placement, len(a.Chunks))
	keys := a.SortedKeys()
	switch policy {
	case HashChunks:
		var text [64]byte
		for _, key := range keys {
			p[key] = int(hashBytes(a.Schema.AppendKey(text[:0], key)) % uint64(k))
		}
	default:
		for i, key := range keys {
			p[key] = i % k
		}
	}
	return &Distributed{Array: a, Placement: p}
}

// DistributeExplicit builds a Distributed with a caller-provided placement.
func DistributeExplicit(a *array.Array, p Placement) *Distributed {
	return &Distributed{Array: a, Placement: p}
}

// hashBytes is FNV-1a over a key's text form.
func hashBytes(b []byte) uint64 {
	var h uint64 = 14695981039346656037
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// Catalog is the centralized system catalog hosted by the coordinator:
// array schemas and distributions, keyed by array name. A published name
// map is never changed, so readers take no lock.
type Catalog struct {
	mu     sync.Mutex // serialises writers
	arrays atomic.Pointer[map[string]*Distributed]
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	c := &Catalog{}
	c.arrays.Store(&map[string]*Distributed{})
	return c
}

// Register publishes a copy of the name map with d. Re-registering a name replaces it.
func (c *Catalog) Register(d *Distributed) {
	c.mu.Lock()
	defer c.mu.Unlock()
	next := maps.Clone(*c.arrays.Load())
	next[d.Array.Schema.Name] = d
	c.arrays.Store(&next)
}

// Lookup finds a distributed array by name.
func (c *Catalog) Lookup(name string) (*Distributed, error) {
	d, ok := (*c.arrays.Load())[name]
	if !ok {
		return nil, fmt.Errorf("cluster: array %q not in catalog", name)
	}
	return d, nil
}

// Cluster is a simulated shared-nothing cluster: K nodes plus the catalog.
type Cluster struct {
	K       int
	Catalog *Catalog
}

// New returns a cluster of k nodes with an empty catalog.
func New(k int) (*Cluster, error) {
	if k <= 0 {
		return nil, fmt.Errorf("cluster: need at least 1 node, got %d", k)
	}
	return &Cluster{K: k, Catalog: NewCatalog()}, nil
}

// Snapshot returns a cluster pinned to the catalog's current name map:
// arrays registered on c afterwards stay invisible to it.
func (c *Cluster) Snapshot() *Cluster {
	pinned := &Catalog{}
	pinned.arrays.Store(c.Catalog.arrays.Load())
	return &Cluster{K: c.K, Catalog: pinned}
}

// MustNew is New but panics on error.
func MustNew(k int) *Cluster {
	c, err := New(k)
	if err != nil {
		panic(err)
	}
	return c
}

// Load distributes an array over the cluster and registers it.
func (c *Cluster) Load(a *array.Array, policy PlacementPolicy) *Distributed {
	d := Distribute(a, c.K, policy)
	c.Catalog.Register(d)
	return d
}

// LoadExplicit registers an array with a caller-chosen placement.
func (c *Cluster) LoadExplicit(a *array.Array, p Placement) (*Distributed, error) {
	d := DistributeExplicit(a, p)
	if err := d.Validate(c.K); err != nil {
		return nil, err
	}
	c.Catalog.Register(d)
	return d, nil
}
