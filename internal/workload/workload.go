// Package workload generates the synthetic datasets of the paper's
// evaluation (Section 6): Zipfian join-unit and slice size distributions
// for the physical planner experiments, selectivity-controlled A:A pairs
// for the logical planner experiments, and scaled-down analogues of the
// NASA MODIS and NOAA AIS datasets for the real-world experiments.
//
// All generators are deterministic given their seed.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"shufflejoin/internal/array"
	"shufflejoin/internal/stats"
)

// ZipfUnitSizes deals totalCells cells to n join units with sizes following
// a Zipf distribution of skew alpha (alpha = 0 is uniform; Section 6.2).
// The rank-to-unit mapping is randomly permuted so hotspots scatter across
// array space, and every unit receives at least one cell when possible.
func ZipfUnitSizes(n int, alpha float64, totalCells int64, rng *rand.Rand) []int64 {
	w := stats.ZipfWeights(n, alpha)
	sizes := make([]int64, n)
	var assigned int64
	for k, wk := range w {
		sizes[k] = int64(math.Floor(wk * float64(totalCells)))
		assigned += sizes[k]
	}
	// Distribute rounding remainder to the largest ranks.
	for i := 0; assigned < totalCells; i, assigned = (i+1)%n, assigned+1 {
		sizes[i]++
	}
	rng.Shuffle(n, func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
	return sizes
}

// MergeSlices builds the slice statistics of a merge join whose join units
// are whole chunks (Section 6.2.1): each array stores each chunk on exactly
// one node, so every join unit has one slice per side, and the two sides'
// sizes are independent (a dense chunk often meets a sparse counterpart —
// beneficial skew — and occasionally another dense one — adversarial).
func MergeSlices(leftSizes, rightSizes []int64, k int, rng *rand.Rand) (left, right [][]int64) {
	n := len(leftSizes)
	left = make([][]int64, n)
	right = make([][]int64, n)
	for u := 0; u < n; u++ {
		l := make([]int64, k)
		r := make([]int64, k)
		l[rng.Intn(k)] = leftSizes[u]
		r[rng.Intn(k)] = rightSizes[u]
		left[u], right[u] = l, r
	}
	return left, right
}

// HashSlices builds the slice statistics of a hash join (Section 6.2.2):
// every join unit is spread over all k nodes, skewing "both the join unit
// sizes and their distribution across nodes". The per-node split models
// how bucket slices arise from chunked storage:
//
//   - At α = 0 the data is exactly uniform: every bucket splits evenly.
//   - At slight skew the node shares are nearly even, dominated by a small
//     systematic loading imbalance (the first nodes hold slightly more of
//     every bucket) — the regime where a single-pass center-of-gravity
//     choice latches onto tiny differences and collapses onto one node.
//   - At pronounced skew each bucket's cells concentrate near the nodes
//     storing its hot chunks, so hotspots rotate per bucket.
//
// Side sizes are independent, as in MergeSlices.
func HashSlices(leftSizes, rightSizes []int64, k int, alpha float64, rng *rand.Rand) (left, right [][]int64) {
	n := len(leftSizes)
	left = make([][]int64, n)
	right = make([][]int64, n)

	// Systematic loading imbalance: node 0 holds ~6% more than node k-1.
	bias := make([]float64, k)
	var biasSum float64
	for j := 0; j < k; j++ {
		bias[j] = 1
		if k > 1 {
			bias[j] = 1 + 0.06*float64(k-1-j)/float64(k-1)
		}
		biasSum += bias[j]
	}
	// Per-bucket hotspot mixing grows with skew beyond the slight regime.
	mix := alpha - 0.5
	if mix < 0 {
		mix = 0
	}
	if mix > 1 {
		mix = 1
	}
	hotW := stats.ZipfWeights(k, 1+alpha)

	spread := func(total int64, hot int) []int64 {
		row := make([]int64, k)
		if alpha == 0 {
			// Exactly uniform data: equal slices, remainder to the front.
			each := total / int64(k)
			var put int64
			for j := 0; j < k; j++ {
				row[j] = each
				put += each
			}
			row[0] += total - put
			return row
		}
		var put int64
		for j := 0; j < k; j++ {
			w := (1-mix)*bias[j]/biasSum + mix*hotW[(j+k-hot)%k]
			row[j] = int64(w * float64(total))
			put += row[j]
		}
		row[hot] += total - put
		return row
	}
	for u := 0; u < n; u++ {
		hotL, hotR := rng.Intn(k), rng.Intn(k)
		left[u] = spread(leftSizes[u], hotL)
		right[u] = spread(rightSizes[u], hotR)
	}
	return left, right
}

// SelectivityPair generates the Section 6.1 experiment inputs: two 1-D
// arrays A<v:int>[i] and B<w:int>[j] whose A:A join on v = w produces
// close to sel·(nA+nB) matches. Duplicate keys are introduced on the A
// side when the requested output exceeds nB.
func SelectivityPair(nA, nB int64, chunks int64, sel float64, seed int64) (*array.Array, *array.Array, error) {
	if nA <= 0 || nB <= 0 || chunks <= 0 {
		return nil, nil, fmt.Errorf("workload: non-positive sizes")
	}
	rng := rand.New(rand.NewSource(seed))
	wantMatches := int64(math.Round(sel * float64(nA+nB)))

	// A holds nA cells with values cycling over nA/d distinct keys, each
	// repeated d times, so one matching B cell yields d matches.
	d := int64(1)
	if wantMatches > nB {
		d = (wantMatches + nB - 1) / nB
	}
	if d > nA {
		d = nA
	}
	distinctA := nA / d
	if distinctA < 1 {
		distinctA = 1
	}
	matchingB := wantMatches / d

	ciA := (nA + chunks - 1) / chunks
	ciB := (nB + chunks - 1) / chunks
	sa := &array.Schema{
		Name:  "A",
		Dims:  []array.Dimension{{Name: "i", Start: 1, End: nA, ChunkInterval: ciA}},
		Attrs: []array.Attribute{{Name: "v", Type: array.TypeInt64}},
	}
	sb := &array.Schema{
		Name:  "B",
		Dims:  []array.Dimension{{Name: "j", Start: 1, End: nB, ChunkInterval: ciB}},
		Attrs: []array.Attribute{{Name: "w", Type: array.TypeInt64}},
	}
	a, err := array.New(sa)
	if err != nil {
		return nil, nil, err
	}
	b, err := array.New(sb)
	if err != nil {
		return nil, nil, err
	}

	// Key space: matching keys spread with a fixed stride across
	// [1, ~1e9] so work lands in every join unit; B's non-matching keys
	// interleave at stride offsets no A key occupies.
	const keyDomain = int64(1_000_000_000)
	stride := keyDomain / (distinctA + 1)
	if stride < 2 {
		stride = 2
	}
	keyOf := func(id int64) int64 { return id*stride + 1 }
	for i := int64(1); i <= nA; i++ {
		a.MustPut([]int64{i}, []array.Value{array.IntValue(keyOf((i-1)%distinctA + 1))})
	}
	perm := rng.Perm(int(distinctA))
	for j := int64(1); j <= nB; j++ {
		var key int64
		if j <= matchingB {
			key = keyOf(int64(perm[(j-1)%distinctA]) + 1)
		} else {
			// Off-grid: one above a stride multiple, never equal to keyOf.
			key = (j%(keyDomain/stride))*stride + 2
		}
		b.MustPut([]int64{j}, []array.Value{array.IntValue(key)})
	}
	a.SortAll()
	b.SortAll()
	return a, b, nil
}

// GeoConfig shapes the MODIS/AIS-like generators. Longitude and latitude
// coordinates are in tenths of a degree (Scale = 10) chunked DegPerChunk
// degrees apart, matching the paper's 4°×4° chunking: 90×45 = 4,050
// lon-lat join units at the defaults, with fine-grained coordinates inside
// each chunk as in the real sensor data.
type GeoConfig struct {
	Cells       int64
	Seed        int64
	DegPerChunk int64 // default 4 (degrees per chunk along lon and lat)
	TimeSteps   int64 // default 64
	Scale       int64 // coordinate subdivisions per degree; default 10
}

func (g GeoConfig) withDefaults() GeoConfig {
	if g.DegPerChunk <= 0 {
		g.DegPerChunk = 4
	}
	if g.TimeSteps <= 0 {
		g.TimeSteps = 64
	}
	if g.Scale <= 0 {
		g.Scale = 10
	}
	return g
}

func geoSchema(name, attr string, t array.ScalarType, g GeoConfig) *array.Schema {
	return &array.Schema{
		Name: name,
		Dims: []array.Dimension{
			{Name: "time", Start: 1, End: g.TimeSteps, ChunkInterval: g.TimeSteps},
			{Name: "longitude", Start: 1, End: 360 * g.Scale, ChunkInterval: g.DegPerChunk * g.Scale},
			{Name: "latitude", Start: 1, End: 180 * g.Scale, ChunkInterval: g.DegPerChunk * g.Scale},
		},
		Attrs: []array.Attribute{{Name: attr, Type: t}},
	}
}

// MODISLike generates a satellite-imagery analogue (Section 6.3): cells
// near-uniform over the lon-lat grid with a mild equator-ward density
// (lat-lon space thins toward the poles), so the top 5% of chunks hold
// roughly 10% of the data. The single attribute is a float reflectance.
func MODISLike(name string, g GeoConfig) *array.Array {
	g = g.withDefaults()
	rng := rand.New(rand.NewSource(g.Seed))
	a := array.MustNew(geoSchema(name, "reflectance", array.TypeFloat64, g))
	sc := float64(g.Scale)
	for c := int64(0); c < g.Cells; c++ {
		// Arcsine-weighted latitude: denser near the equator (90°), thinner
		// toward the poles — the artifact of lat-lon space the paper notes.
		x := math.Asin(2*rng.Float64()-1) / (math.Pi / 2) // [-1,1], peaked at 0
		lat := clamp(int64((90.5+x*89)*sc), 1, 180*g.Scale)
		lon := rng.Int63n(360*g.Scale) + 1
		tm := rng.Int63n(g.TimeSteps) + 1
		a.MustPut([]int64{tm, lon, lat}, []array.Value{array.FloatValue(rng.Float64())})
	}
	a.SortAll()
	return a
}

// AISLike generates a ship-tracking analogue (Section 6.3): vessel
// broadcasts cluster around a small set of "ports" along a synthetic
// coastline plus thin shipping lanes, so ~85% of the cells land in ~5% of
// the chunks. Attributes are a ship identifier and speed.
func AISLike(name string, g GeoConfig) *array.Array {
	g = g.withDefaults()
	rng := rand.New(rand.NewSource(g.Seed))
	s := geoSchema(name, "ship_id", array.TypeInt64, g)
	s.Attrs = append(s.Attrs, array.Attribute{Name: "speed", Type: array.TypeFloat64})
	a := array.MustNew(s)

	// Ports along a synthetic coastline (fixed for reproducibility);
	// weights follow a steep Zipf so a few ports dominate, as New York
	// dominates Alaska in the real data.
	type port struct{ lon, lat int64 }
	ports := make([]port, 24)
	prng := rand.New(rand.NewSource(7))
	for i := range ports {
		ports[i] = port{lon: prng.Int63n(120) + 60, lat: prng.Int63n(60) + 60}
	}
	w := stats.ZipfWeights(len(ports), 1.6)

	sc := float64(g.Scale)
	for c := int64(0); c < g.Cells; c++ {
		var lon, lat int64
		switch {
		case rng.Float64() < 0.76:
			// Port cluster: tight gaussian around a Zipf-chosen port.
			p := ports[zipfPick(w, rng)]
			lon = clamp(int64((float64(p.lon)+rng.NormFloat64()*2.2)*sc), 1, 360*g.Scale)
			lat = clamp(int64((float64(p.lat)+rng.NormFloat64()*2.2)*sc), 1, 180*g.Scale)
		case rng.Float64() < 0.6:
			// Shipping lane: a line between two ports.
			p1, p2 := ports[zipfPick(w, rng)], ports[zipfPick(w, rng)]
			f := rng.Float64()
			lon = clamp(int64((float64(p1.lon)+f*float64(p2.lon-p1.lon))*sc), 1, 360*g.Scale)
			lat = clamp(int64((float64(p1.lat)+f*float64(p2.lat-p1.lat))*sc), 1, 180*g.Scale)
		default:
			// Open water.
			lon = rng.Int63n(360*g.Scale) + 1
			lat = rng.Int63n(180*g.Scale) + 1
		}
		tm := rng.Int63n(g.TimeSteps) + 1
		a.MustPut([]int64{tm, lon, lat}, []array.Value{
			array.IntValue(rng.Int63n(50_000)),
			array.FloatValue(rng.Float64() * 30),
		})
	}
	a.SortAll()
	return a
}

func zipfPick(w []float64, rng *rand.Rand) int {
	f := rng.Float64()
	for i, wi := range w {
		f -= wi
		if f <= 0 {
			return i
		}
	}
	return len(w) - 1
}

func clamp(v, lo, hi int64) int64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Grid2D generates the Section 6.2 style 2-D array
// name<v1:int, v2:int>[i=1,n,ci, j=1,n,ci] with per-chunk cell counts
// following the given sizes (one entry per chunk in row-major chunk
// order). Cell coordinates are drawn uniformly inside each chunk; v1/v2
// are random. Used when the physical experiments run through the full
// executor rather than the modeled layer.
func Grid2D(name string, n, ci int64, sizes []int64, seed int64) (*array.Array, error) {
	if n%ci != 0 {
		return nil, fmt.Errorf("workload: n %d not divisible by chunk interval %d", n, ci)
	}
	grid := n / ci
	if int64(len(sizes)) != grid*grid {
		return nil, fmt.Errorf("workload: %d sizes for %d chunks", len(sizes), grid*grid)
	}
	s := &array.Schema{
		Name: name,
		Dims: []array.Dimension{
			{Name: "i", Start: 1, End: n, ChunkInterval: ci},
			{Name: "j", Start: 1, End: n, ChunkInterval: ci},
		},
		Attrs: []array.Attribute{
			{Name: "v1", Type: array.TypeInt64},
			{Name: "v2", Type: array.TypeInt64},
		},
	}
	a, err := array.New(s)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	for u, count := range sizes {
		cu := int64(u)
		baseI := (cu / grid) * ci
		baseJ := (cu % grid) * ci
		for c := int64(0); c < count; c++ {
			i := baseI + rng.Int63n(ci) + 1
			j := baseJ + rng.Int63n(ci) + 1
			a.MustPut([]int64{i, j}, []array.Value{
				array.IntValue(rng.Int63n(1 << 30)),
				array.IntValue(rng.Int63n(1 << 30)),
			})
		}
	}
	a.SortAll()
	return a, nil
}

// MODISPair generates two matched satellite bands as in the paper's
// Section 6.3.2: the second band shares the first's sensor grid (so
// corresponding chunks are nearly equal in size — adversarial skew) but
// carries independent readings, with dropFrac of its cells missing
// (sensor dropouts; the paper's bands differ by ~1.5% of a chunk).
func MODISPair(name1, name2 string, g GeoConfig, dropFrac float64) (*array.Array, *array.Array) {
	g = g.withDefaults()
	band1 := MODISLike(name1, g)
	return band1, SecondBand(band1, name2, g.Seed+7_654_321, dropFrac)
}

// SecondBand derives a second band named name from band1: the same
// sensor grid, new readings drawn from seed, and each cell dropped with
// probability dropFrac, so corresponding chunks differ slightly in size.
func SecondBand(band1 *array.Array, name string, seed int64, dropFrac float64) *array.Array {
	rng := rand.New(rand.NewSource(seed))
	b2 := array.MustNew(band1.Schema.Rename(name))
	band1.Scan(func(coords []int64, _ []array.Value) bool {
		if rng.Float64() < dropFrac {
			return true
		}
		b2.MustPut(coords, []array.Value{array.FloatValue(rng.Float64())})
		return true
	})
	b2.SortAll()
	return b2
}
