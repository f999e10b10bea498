package workload

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"shufflejoin/internal/array"
	"shufflejoin/internal/join"
)

func TestZipfUnitSizesConserved(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(500) + 1
		total := rng.Int63n(1_000_000) + int64(n)
		alpha := float64(rng.Intn(5)) / 2
		sizes := ZipfUnitSizes(n, alpha, total, rng)
		var sum int64
		for _, s := range sizes {
			if s < 0 {
				return false
			}
			sum += s
		}
		return sum == total && len(sizes) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestZipfUnitSizesSkewIncreases(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	prevMax := int64(0)
	for _, alpha := range []float64{0, 0.5, 1.0, 1.5, 2.0} {
		sizes := ZipfUnitSizes(1024, alpha, 10_000_000, rand.New(rand.NewSource(rng.Int63())))
		var mx int64
		for _, s := range sizes {
			if s > mx {
				mx = s
			}
		}
		if mx < prevMax {
			t.Errorf("alpha=%v: max size %d below previous %d", alpha, mx, prevMax)
		}
		prevMax = mx
	}
}

func TestMergeSlicesWholeChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ls := ZipfUnitSizes(64, 1.0, 100_000, rng)
	rs := ZipfUnitSizes(64, 1.0, 100_000, rng)
	left, right := MergeSlices(ls, rs, 4, rng)
	for u := range ls {
		lNodes, rNodes := 0, 0
		var sum int64
		for j := 0; j < 4; j++ {
			if left[u][j] > 0 {
				lNodes++
			}
			if right[u][j] > 0 {
				rNodes++
			}
			sum += left[u][j] + right[u][j]
		}
		if lNodes > 1 || rNodes > 1 {
			t.Fatalf("unit %d: merge slices on multiple nodes (%d/%d)", u, lNodes, rNodes)
		}
		if sum != ls[u]+rs[u] {
			t.Fatalf("unit %d: slices sum %d, want %d", u, sum, ls[u]+rs[u])
		}
	}
}

func TestHashSlicesSpreadAndConserved(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ls := ZipfUnitSizes(128, 1.5, 500_000, rng)
	rs := ZipfUnitSizes(128, 1.5, 500_000, rng)
	left, right := HashSlices(ls, rs, 4, 1.0, rng)
	multiNode := 0
	for u := range ls {
		var sum int64
		nodes := 0
		for j := 0; j < 4; j++ {
			s := left[u][j] + right[u][j]
			if s < 0 {
				t.Fatalf("negative slice at unit %d node %d", u, j)
			}
			if s > 0 {
				nodes++
			}
			sum += s
		}
		if sum != ls[u]+rs[u] {
			t.Fatalf("unit %d: sum %d != %d", u, sum, ls[u]+rs[u])
		}
		if nodes > 1 {
			multiNode++
		}
	}
	if multiNode < len(ls)/2 {
		t.Errorf("only %d/%d units spread over multiple nodes", multiNode, len(ls))
	}
}

func countMatches(t *testing.T, a, b *array.Array) int64 {
	t.Helper()
	var left, right []join.Tuple
	a.Scan(func(c []int64, at []array.Value) bool {
		left = append(left, join.Tuple{Key: []array.Value{at[0]}})
		return true
	})
	b.Scan(func(c []int64, at []array.Value) bool {
		right = append(right, join.Tuple{Key: []array.Value{at[0]}})
		return true
	})
	st := join.HashJoin(left, right, nil)
	return st.Matches
}

func TestSelectivityPairLow(t *testing.T) {
	for _, sel := range []float64{0.01, 0.1, 1} {
		a, b, err := SelectivityPair(10_000, 10_000, 32, sel, 42)
		if err != nil {
			t.Fatal(err)
		}
		want := sel * 20_000
		got := float64(countMatches(t, a, b))
		if math.Abs(got-want) > want*0.05+1 {
			t.Errorf("sel=%v: matches = %v, want ≈ %v", sel, got, want)
		}
	}
}

func TestSelectivityPairHigh(t *testing.T) {
	for _, sel := range []float64{10, 100} {
		a, b, err := SelectivityPair(10_000, 10_000, 32, sel, 43)
		if err != nil {
			t.Fatal(err)
		}
		want := sel * 20_000
		got := float64(countMatches(t, a, b))
		if math.Abs(got-want) > want*0.10 {
			t.Errorf("sel=%v: matches = %v, want ≈ %v", sel, got, want)
		}
	}
}

func TestSelectivityPairShapes(t *testing.T) {
	a, b, err := SelectivityPair(8_000, 8_000, 32, 0.5, 44)
	if err != nil {
		t.Fatal(err)
	}
	if a.CellCount() != 8000 || b.CellCount() != 8000 {
		t.Errorf("cells = %d / %d", a.CellCount(), b.CellCount())
	}
	if got := int64(a.ChunkCount()); got != 32 {
		t.Errorf("A chunks = %d, want 32", got)
	}
	if _, _, err := SelectivityPair(0, 10, 4, 1, 1); err == nil {
		t.Error("zero-size input should error")
	}
}

// ChunkConcentration reports the fraction of an array's cells held by its
// largest `frac` fraction of stored chunks (at least one) — the statistic
// the paper uses to characterize AIS (85% in 5%) and MODIS (10% in 5%).
func ChunkConcentration(a *array.Array, frac float64) float64 {
	sizes := make([]int, 0, len(a.Chunks))
	total := 0
	for _, ch := range a.Chunks {
		sizes = append(sizes, ch.Len())
		total += ch.Len()
	}
	if total == 0 {
		return 0
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	k := max(1, int(math.Ceil(frac*float64(len(sizes)))))
	top := 0
	for _, n := range sizes[:k] {
		top += n
	}
	return float64(top) / float64(total)
}

func TestAISConcentration(t *testing.T) {
	a := AISLike("AIS", GeoConfig{Cells: 200_000, Seed: 11})
	c := ChunkConcentration(a, 0.05)
	// Paper: ~85% of the data in 5% of the chunks.
	if c < 0.70 || c > 0.97 {
		t.Errorf("AIS top-5%% concentration = %.2f, want ≈ 0.85", c)
	}
	if a.CellCount() != 200_000 {
		t.Errorf("cells = %d", a.CellCount())
	}
}

func TestMODISSlightSkew(t *testing.T) {
	a := MODISLike("MODIS", GeoConfig{Cells: 200_000, Seed: 12})
	c := ChunkConcentration(a, 0.05)
	// Paper: top 5% of chunks hold only ~10% of the data.
	if c < 0.05 || c > 0.25 {
		t.Errorf("MODIS top-5%% concentration = %.2f, want ≈ 0.10", c)
	}
}

func TestGeoSchemasAligned(t *testing.T) {
	ais := AISLike("AIS", GeoConfig{Cells: 1000, Seed: 1})
	modis := MODISLike("MODIS", GeoConfig{Cells: 1000, Seed: 2})
	if !reflect.DeepEqual(ais.Schema.Dims, modis.Schema.Dims) {
		t.Error("AIS and MODIS schemas must share a shape for the merge join")
	}
	// 4-degree chunking: lon 90 chunks, lat 45 chunks.
	if got := ais.Schema.Dims[1].ChunkCount() * ais.Schema.Dims[2].ChunkCount(); got != 4050 {
		t.Errorf("lon-lat units = %d, want 4050", got)
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a1 := AISLike("A", GeoConfig{Cells: 5000, Seed: 9})
	a2 := AISLike("A", GeoConfig{Cells: 5000, Seed: 9})
	if a1.CellCount() != a2.CellCount() || a1.ChunkCount() != a2.ChunkCount() {
		t.Error("AISLike not deterministic")
	}
	k1, k2 := a1.SortedKeys(), a2.SortedKeys()
	for i := range k1 {
		if k1[i] != k2[i] {
			t.Fatal("chunk keys differ between identical seeds")
		}
	}
}

func TestGrid2DChunkSizes(t *testing.T) {
	sizes := make([]int64, 16) // 4x4 grid
	for i := range sizes {
		sizes[i] = int64(10 * (i + 1))
	}
	a, err := Grid2D("G", 400, 100, sizes, 5)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, s := range sizes {
		total += s
	}
	if a.CellCount() != total {
		t.Errorf("cells = %d, want %d", a.CellCount(), total)
	}
	// Chunk (0,0) must hold exactly sizes[0] cells, etc.
	for u, want := range sizes {
		text := fmt.Sprintf("%d,%d", u/4, u%4)
		key, err := a.Schema.ParseKey([]byte(text))
		if err != nil {
			t.Fatal(err)
		}
		ch := a.Chunks[key]
		if ch == nil {
			if want != 0 {
				t.Fatalf("chunk %s missing", text)
			}
			continue
		}
		if int64(ch.Len()) != want {
			t.Errorf("chunk %s has %d cells, want %d", text, ch.Len(), want)
		}
	}
	if _, err := Grid2D("G", 401, 100, sizes, 5); err == nil {
		t.Error("non-divisible grid should error")
	}
	if _, err := Grid2D("G", 400, 100, sizes[:3], 5); err == nil {
		t.Error("wrong size count should error")
	}
}

func TestMODISPairMatchedChunks(t *testing.T) {
	b1, b2 := MODISPair("Band1", "Band2", GeoConfig{Cells: 50_000, Seed: 3}, 0.015)
	if !reflect.DeepEqual(b1.Schema.Dims, b2.Schema.Dims) {
		t.Fatal("bands must share a shape")
	}
	// Dropout within a tolerance band.
	frac := 1 - float64(b2.CellCount())/float64(b1.CellCount())
	if frac < 0.005 || frac > 0.03 {
		t.Errorf("dropout = %.3f, want ~0.015", frac)
	}
	// Corresponding chunks close in size (adversarial skew).
	var gaps, sizes float64
	for key, ch := range b1.Chunks {
		if c2 := b2.Chunks[key]; c2 != nil {
			gaps += math.Abs(float64(ch.Len() - c2.Len()))
			sizes += float64(ch.Len())
		}
	}
	if gaps/sizes > 0.05 {
		t.Errorf("mean chunk gap fraction %.3f, want small (paper: 10k vs 665k cells)", gaps/sizes)
	}
	// Independent readings: values at shared coords differ somewhere.
	same := 0
	checked := 0
	b2.Scan(func(coords []int64, attrs []array.Value) bool {
		v1, ok := b1.Get(coords)
		if ok {
			checked++
			if v1[0].F == attrs[0].F {
				same++
			}
		}
		return checked < 500
	})
	if checked > 0 && same == checked {
		t.Error("band 2 readings identical to band 1")
	}
}
