package cluster

import (
	"testing"

	"shufflejoin/internal/array"
)

func gridArray(t *testing.T, n, ci int64) *array.Array {
	t.Helper()
	s := array.MustParseSchema("G<v:int>[i=1,16,4, j=1,16,4]")
	s.Dims[0].End, s.Dims[0].ChunkInterval = n, ci
	s.Dims[1].End, s.Dims[1].ChunkInterval = n, ci
	a := array.MustNew(s)
	for i := int64(1); i <= n; i++ {
		for j := int64(1); j <= n; j++ {
			a.MustPut([]int64{i, j}, []array.Value{array.IntValue(i * j)})
		}
	}
	return a
}

func TestDistributeRoundRobinCoversAllChunks(t *testing.T) {
	a := gridArray(t, 16, 4) // 4x4 = 16 chunks
	d := Distribute(a, 4, RoundRobin)
	if err := d.Validate(4); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	counts := make(map[int]int)
	for _, n := range d.Placement {
		counts[n]++
	}
	for node := 0; node < 4; node++ {
		if counts[node] != 4 {
			t.Errorf("node %d hosts %d chunks, want 4", node, counts[node])
		}
	}
}

func TestDistributeHashDeterministic(t *testing.T) {
	a := gridArray(t, 16, 4)
	d1 := Distribute(a, 4, HashChunks)
	d2 := Distribute(a, 4, HashChunks)
	for k, n := range d1.Placement {
		if d2.Placement[k] != n {
			t.Fatalf("hash placement not deterministic for %s", k)
		}
	}
}

// TestPlacementCoversEveryChunkOnce: under either policy the placement
// maps every stored chunk exactly once, to a node in [0, K).
func TestPlacementCoversEveryChunkOnce(t *testing.T) {
	a := gridArray(t, 16, 4)
	for _, policy := range []PlacementPolicy{RoundRobin, HashChunks} {
		for _, k := range []int{1, 3, 4} {
			d := Distribute(a, k, policy)
			if len(d.Placement) != len(a.Chunks) {
				t.Errorf("policy %v k=%d: placement has %d chunks, array stores %d",
					policy, k, len(d.Placement), len(a.Chunks))
			}
			for key := range a.Chunks {
				node, ok := d.Placement[key]
				if !ok {
					t.Errorf("policy %v k=%d: chunk %s unplaced", policy, k, key)
				} else if node < 0 || node >= k {
					t.Errorf("policy %v k=%d: chunk %s on node %d", policy, k, key, node)
				}
			}
		}
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	a := gridArray(t, 8, 4)
	d := Distribute(a, 2, RoundRobin)
	// Out-of-range node.
	for k := range d.Placement {
		d.Placement[k] = 9
		break
	}
	if err := d.Validate(2); err == nil {
		t.Error("Validate accepted out-of-range node")
	}
	// Missing chunk.
	d2 := Distribute(a, 2, RoundRobin)
	for k := range d2.Placement {
		delete(d2.Placement, k)
		break
	}
	if err := d2.Validate(2); err == nil {
		t.Error("Validate accepted incomplete placement")
	}
}

func TestCatalogRegisterLookup(t *testing.T) {
	c := MustNew(4)
	a := gridArray(t, 8, 4)
	c.Load(a, RoundRobin)
	d, err := c.Catalog.Lookup("G")
	if err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	if d.Array != a {
		t.Error("Lookup returned a different array")
	}
	if _, err := c.Catalog.Lookup("missing"); err == nil {
		t.Error("Lookup of unknown name should error")
	}
}

func TestLoadExplicitValidates(t *testing.T) {
	c := MustNew(2)
	a := gridArray(t, 8, 4)
	p := make(Placement)
	for _, k := range a.SortedKeys() {
		p[k] = 1
	}
	d, err := c.LoadExplicit(a, p)
	if err != nil {
		t.Fatalf("LoadExplicit: %v", err)
	}
	for key, node := range d.Placement {
		if node != 1 {
			t.Errorf("chunk %s on node %d, want the explicit node 1", key, node)
		}
	}
	bad := make(Placement)
	if _, err := c.LoadExplicit(a, bad); err == nil {
		t.Error("empty placement should fail validation")
	}
}

func TestNewRejectsNonPositive(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Error("New(0) should fail")
	}
}

func TestDataFingerprintDistinguishesDataAndPlacement(t *testing.T) {
	a := gridArray(t, 16, 4)
	d1 := Distribute(a, 4, RoundRobin)
	d2 := Distribute(a, 4, RoundRobin)
	if d1.DataFingerprint() != d2.DataFingerprint() {
		t.Error("same array, same placement: fingerprints differ")
	}
	if d1.DataFingerprint() != d1.DataFingerprint() {
		t.Error("fingerprint not stable across calls")
	}
	// Different placement of the same cells.
	d3 := Distribute(a, 4, HashChunks)
	if d1.DataFingerprint() == d3.DataFingerprint() {
		t.Error("different placements share a fingerprint")
	}
	// Different data: same grid, one cell missing, so one chunk's cell
	// count — and with it the skew profile — changes.
	b := array.MustNew(a.Schema)
	skipped := false
	a.Scan(func(coords []int64, attrs []array.Value) bool {
		if !skipped && coords[0] == 1 && coords[1] == 1 {
			skipped = true
			return true
		}
		b.MustPut(coords, attrs)
		return true
	})
	d4 := Distribute(b, 4, RoundRobin)
	if d1.DataFingerprint() == d4.DataFingerprint() {
		t.Error("different per-chunk cell counts share a fingerprint")
	}
}

func TestAttrHistogramCachedAndCorrect(t *testing.T) {
	a := gridArray(t, 8, 4)
	d := Distribute(a, 2, RoundRobin)
	h := d.AttrHistogram("v")
	if h == nil {
		t.Fatal("AttrHistogram(v) = nil")
	}
	if h.Total != a.CellCount() {
		t.Errorf("histogram Total = %d, want %d", h.Total, a.CellCount())
	}
	if h2 := d.AttrHistogram("v"); h2 != h {
		t.Error("second AttrHistogram call rebuilt the histogram instead of caching")
	}
	if d.AttrHistogram("nope") != nil {
		t.Error("unknown attribute should have no histogram")
	}
}
