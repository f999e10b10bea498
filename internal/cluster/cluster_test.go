package cluster

import (
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"testing"

	"shufflejoin/internal/array"
	"shufflejoin/internal/stats"
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
			t.Fatalf("hash placement not deterministic for %d", k)
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
					t.Errorf("policy %v k=%d: chunk %d unplaced", policy, k, key)
				} else if node < 0 || node >= k {
					t.Errorf("policy %v k=%d: chunk %d on node %d", policy, k, key, node)
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

// TestSnapshotPinsVersion pins the catalog's versioning: a snapshot keeps
// resolving names as they stood when it was taken, while registrations
// after it, a replacement of a name it holds included, reach only the
// live catalog.
func TestSnapshotPinsVersion(t *testing.T) {
	c := MustNew(2)
	old := c.Load(gridArray(t, 8, 4), RoundRobin)
	snap := c.Snapshot()
	replaced := c.Load(gridArray(t, 8, 2), RoundRobin)
	other := array.MustNew(array.MustParseSchema("H<v:int>[i=1,4,2]"))
	c.Load(other, RoundRobin)

	if d, err := snap.Catalog.Lookup("G"); err != nil || d != old {
		t.Errorf("snapshot resolves G to %p (err %v), want the version it pinned %p", d, err, old)
	}
	if _, err := snap.Catalog.Lookup("H"); err == nil {
		t.Error("an array registered after the snapshot is visible through it")
	}
	if d, _ := c.Catalog.Lookup("G"); d != replaced {
		t.Error("the live catalog does not hold G's replacement")
	}
	if _, err := c.Catalog.Lookup("H"); err != nil {
		t.Errorf("live Lookup(H): %v", err)
	}
	if snap.K != c.K {
		t.Errorf("snapshot K = %d, want %d", snap.K, c.K)
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
			t.Errorf("chunk %d on node %d, want the explicit node 1", key, node)
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

// pinArray is a fixed sparse 2-D array on a 12×5 chunk grid: multi-digit
// chunk indices, a negative dimension start, and an empty chunk (1,2).
func pinArray() *array.Array {
	a := array.MustNew(array.MustParseSchema("P<v:int>[i=1,48,4, j=-3,16,4]"))
	for i := int64(1); i <= 48; i++ {
		for j := int64(-3); j <= 16; j++ {
			if (i*7+j*3)%4 == 0 || (i >= 5 && i <= 8 && j >= 5 && j <= 8) {
				continue
			}
			a.MustPut([]int64{i, j}, []array.Value{array.IntValue(i * j)})
		}
	}
	return a
}

// TestPlacementAndFingerprintPinned: the data fingerprint under both
// policies and the hash placement of a fixed array are the values the
// engine produced when chunk keys were stored as their text form. Both
// digest the text form, so plan signatures and placements survive the
// change of key representation.
func TestPlacementAndFingerprintPinned(t *testing.T) {
	a := pinArray()
	rr := Distribute(a, 4, RoundRobin)
	hc := Distribute(a, 4, HashChunks)
	if len(a.Chunks) != 59 {
		t.Fatalf("pin array stores %d chunks, want 59", len(a.Chunks))
	}
	if got := rr.DataFingerprint(); got != 0xd0ba498a4da4d12d {
		t.Errorf("round-robin DataFingerprint = %#x, want 0xd0ba498a4da4d12d", got)
	}
	if got := hc.DataFingerprint(); got != 0x2104b20d1c503fe6 {
		t.Errorf("hash DataFingerprint = %#x, want 0x2104b20d1c503fe6", got)
	}
	const want = "0,0:3 0,1:0 0,2:1 0,3:2 0,4:3 1,0:0 1,1:3 1,3:1 1,4:0 2,0:1 2,1:2 2,2:3 2,3:0 2,4:1 " +
		"3,0:2 3,1:1 3,2:0 3,3:3 3,4:2 4,0:3 4,1:0 4,2:1 4,3:2 4,4:3 5,0:0 5,1:3 5,2:2 5,3:1 5,4:0 " +
		"6,0:1 6,1:2 6,2:3 6,3:0 6,4:1 7,0:2 7,1:1 7,2:0 7,3:3 7,4:2 8,0:3 8,1:0 8,2:1 8,3:2 8,4:3 " +
		"9,0:0 9,1:3 9,2:2 9,3:1 9,4:0 10,0:0 10,1:3 10,2:2 10,3:1 10,4:0 11,0:3 11,1:0 11,2:1 11,3:2 11,4:3"
	var got []string
	for _, k := range a.SortedKeys() {
		got = append(got, string(a.Schema.AppendKey(nil, k))+":"+strconv.Itoa(hc.Placement[k]))
	}
	if g := strings.Join(got, " "); g != want {
		t.Errorf("hash placement changed:\n got %s\nwant %s", g, want)
	}
}

// TestLocalChunks: under both policies each node's list holds exactly the
// chunks placed on it, in C-order, and together they cover the array.
func TestLocalChunks(t *testing.T) {
	a := pinArray()
	for _, policy := range []PlacementPolicy{RoundRobin, HashChunks} {
		d := Distribute(a, 3, policy)
		var want [3][]array.ChunkKey
		for _, k := range a.SortedKeys() {
			want[d.Placement[k]] = append(want[d.Placement[k]], k)
		}
		for node := range want {
			if got := d.LocalChunks(node); !slices.Equal(got, want[node]) {
				t.Errorf("policy %v node %d: LocalChunks = %v, want %v", policy, node, got, want[node])
			}
		}
		if d.LocalChunks(3) != nil || d.LocalChunks(-1) != nil {
			t.Errorf("policy %v: a node outside the placement has chunks", policy)
		}
	}
}

var localSink int

// localChunks returns a repeated read of a sealed array's per-node
// chunk lists, as each query's slice map makes, its lists already built.
func localChunks() func() {
	d := Distribute(pinArray(), 4, HashChunks)
	read := func() {
		for node := 0; node < 4; node++ {
			localSink += len(d.LocalChunks(node))
		}
	}
	read()
	return read
}

// BenchmarkLocalChunks measures a repeated read of a sealed array's
// per-node chunk lists: 0 allocs/op (TestLocalChunksZeroAllocs enforces
// it).
func BenchmarkLocalChunks(b *testing.B) {
	read := localChunks()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		read()
	}
}

// allocSink keeps the gate's injected allocation on the heap.
var allocSink []byte

// allocsPerRun counts the heap allocations of n calls of f with
// runtime.ReadMemStats. The caller turns the collector off.
func allocsPerRun(n int, f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestLocalChunksZeroAllocs is the gate on BenchmarkLocalChunks' body:
// a fixed number of reads allocate nothing, at every core count. The
// collector is off while counting, the least of three counts is held to
// 0 (the runtime can allocate a few objects of its own during a count
// now and then), and the same reads with one allocation injected each
// must count at least one per read.
func TestLocalChunksZeroAllocs(t *testing.T) {
	const reads = 1000
	read := localChunks()
	for _, procs := range []int{1, 2, 8} {
		prev := runtime.GOMAXPROCS(procs)
		runtime.GC()
		gc := debug.SetGCPercent(-1)
		read() // the first read on new Ps
		got := allocsPerRun(reads, read)
		for try := 0; try < 2 && got > 0; try++ {
			got = min(got, allocsPerRun(reads, read))
		}
		injected := allocsPerRun(reads, func() {
			read()
			allocSink = make([]byte, 64)
		})
		debug.SetGCPercent(gc)
		runtime.GOMAXPROCS(prev)
		if got != 0 {
			t.Errorf("GOMAXPROCS=%d: %d reads of the chunk lists made %d allocations, want 0", procs, reads, got)
		}
		if injected < reads {
			t.Errorf("GOMAXPROCS=%d: %d reads with an injected allocation each counted %d allocations, want at least %d", procs, reads, injected, reads)
		}
	}
}

// scanHistogram is the cell-by-cell AttrHistogram it replaced, kept as
// its oracle: two Array.Scan passes over boxed cells.
func scanHistogram(a *array.Array, ai int) *stats.Histogram {
	lo, hi := math.Inf(1), math.Inf(-1)
	a.Scan(func(_ []int64, attrs []array.Value) bool {
		v := attrs[ai].AsFloat()
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
		return true
	})
	if lo > hi {
		return nil
	}
	h := stats.NewHistogram(lo, hi, 64)
	a.Scan(func(_ []int64, attrs []array.Value) bool {
		h.Add(attrs[ai].AsFloat())
		return true
	})
	return h
}

func TestAttrHistogramMatchesScan(t *testing.T) {
	a := array.MustNew(array.MustParseSchema("H<n:int, f:float, s:string, x:string>[i=1,500,37, j=1,20,6]"))
	rng := rand.New(rand.NewSource(3))
	for c := 0; c < 3000; c++ {
		f := rng.NormFloat64() * 1e3
		switch rng.Intn(50) {
		case 0:
			f = math.NaN()
		case 1:
			f = math.Inf(1)
		}
		s := strconv.Itoa(rng.Intn(900) - 100)
		if rng.Intn(8) == 0 {
			s = "n/a"
		}
		a.MustPut([]int64{rng.Int63n(500) + 1, rng.Int63n(20) + 1}, []array.Value{
			array.IntValue(rng.Int63n(1 << 40)), array.FloatValue(f), array.StringValue(s), array.StringValue("x")})
	}
	d := Distribute(a, 3, RoundRobin)
	for ai, name := range []string{"n", "f", "s", "x"} {
		want := scanHistogram(a, ai)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got := d.AttrHistogram(name)
		runtime.ReadMemStats(&after)
		if (got == nil) != (want == nil) || got != nil && (got.Fingerprint() != want.Fingerprint() ||
			got.Lo != want.Lo || got.Hi != want.Hi || !slices.Equal(got.Buckets, want.Buckets) ||
			got.Total != want.Total || got.Dropped != want.Dropped) {
			t.Errorf("%s: histogram %+v, Scan's %+v", name, got, want)
		}
		// The keys, the histogram and a map entry, not a slice per cell,
		// nor a parse error per string that does not parse as a number.
		if n := after.Mallocs - before.Mallocs; n > 16 {
			t.Errorf("%s: AttrHistogram made %d allocations over %d cells", name, n, a.CellCount())
		}
	}
}
