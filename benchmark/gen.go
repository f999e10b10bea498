package main

// gen.go makes every input from the seed and computes the oracles. The
// generators are the benchmark's own, although internal/workload and
// internal/servebench have near relations: the inputs of a committed
// baseline must not change when those packages do.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"
)

// scale fixes every workload's input sizes. "full" is what BENCHMARK.json
// measures; "smoke" runs the same code in a few seconds for bench_test.go.
type scale struct {
	mergeGrid, mergeChunk, mergeCells int // merge_skew: grid×grid chunks of chunk×chunk positions
	hashCells                         int // hash_hot cells per side
	wideCells, wideNodes              int // wide_plan cells per side, simulated nodes
	serveInteractive, serveScan       int // serve_mix cells per side of each pair
	ingestCells                       int
	setupReps                         int           // set-ups per run at least; setup_s is their median
	setupBudget                       time.Duration // more set-ups, up to 7× as many, while they have taken less
	replayReps                        int           // layer replays per query template in the traced pass
	minOps                            int           // a run measures at least this many ops
}

var scales = map[string]scale{
	"full": {
		mergeGrid: 32, mergeChunk: 256, mergeCells: 400_000,
		hashCells: 100_000,
		wideCells: 50_000, wideNodes: 32,
		serveInteractive: 2_000, serveScan: 24_000,
		ingestCells: 100_000,
		setupReps:   3, setupBudget: 2 * time.Second, replayReps: 3, minOps: 5,
	},
	"smoke": {
		mergeGrid: 8, mergeChunk: 32, mergeCells: 4_000,
		hashCells: 2_000,
		wideCells: 1_500, wideNodes: 8,
		serveInteractive: 200, serveScan: 1_200,
		ingestCells: 2_000,
		setupReps:   1, replayReps: 1, minOps: 2,
	},
}

// arrayInput is one generated input array: a schema literal plus its cells,
// flattened row-major (nd coordinates and na integer attributes per cell).
type arrayInput struct {
	schema string
	hashed bool // placed by chunk hash instead of round-robin
	nd, na int
	coords []int64
	vals   []int64
}

func (a *arrayInput) rows() int            { return len(a.coords) / a.nd }
func (a *arrayInput) coord(r, d int) int64 { return a.coords[r*a.nd+d] }
func (a *arrayInput) val(r, k int) int64   { return a.vals[r*a.na+k] }
func (a *arrayInput) add(c []int64, v ...int64) {
	a.coords = append(a.coords, c...)
	a.vals = append(a.vals, v...)
}

// zipfCounts deals total cells to n chunks in Zipf(alpha) proportions. Which
// chunk holds which rank is drawn from shape, a constant of the workload, and
// not from the seed: a run's seed moves cells, never the skew that the
// planners and the modeled times depend on. rng then shifts up to 0.3% of a
// chunk's cells to another chunk, n times over, so that no two seeds give
// the same counts either.
func zipfCounts(n int, alpha float64, total int, shape int64, rng *rand.Rand) []int {
	w := make([]float64, n)
	var sum float64
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), alpha)
		sum += w[i]
	}
	counts := make([]int, n)
	dealt := 0
	for i := range w {
		counts[i] = int(w[i] / sum * float64(total))
		dealt += counts[i]
	}
	for i := 0; dealt < total; i, dealt = (i+1)%n, dealt+1 {
		counts[i]++
	}
	rand.New(rand.NewSource(shape)).Shuffle(n, func(i, j int) { counts[i], counts[j] = counts[j], counts[i] })
	for k := 0; k < n; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		d := rng.Intn(1 + counts[i]/300)
		counts[i], counts[j] = counts[i]-d, counts[j]+d
	}
	return counts
}

// genMergeSkew builds the two 2-D arrays of merge_skew: a grid×grid chunk
// grid whose chunk densities follow Zipf(1.0) independently per side (the
// paper's Figure 7 shape), cells at distinct random positions inside each
// chunk. A is placed round-robin and B by hash, so most units must move.
// A chunk that is dealt more cells than it has positions is filled.
func genMergeSkew(sc scale, seed int64) []*arrayInput {
	grid, side := sc.mergeGrid, sc.mergeChunk
	dom := grid * side
	var out []*arrayInput
	for s, name := range []string{"A<v", "B<w"} {
		rng := rand.New(rand.NewSource(seed*16 + int64(s)))
		in := &arrayInput{
			schema: fmt.Sprintf("%s:int>[i=1,%d,%d, j=1,%d,%d]", name, dom, side, dom, side),
			hashed: s == 1, nd: 2, na: 1,
		}
		// A partial Fisher-Yates pass over any permutation draws a uniform
		// sample without replacement, so perm is never reset between chunks.
		perm := rng.Perm(side * side)
		for ch, n := range zipfCounts(grid*grid, 1.0, sc.mergeCells, int64(s), rng) {
			if n > len(perm) {
				n = len(perm)
			}
			for k := 0; k < n; k++ {
				j := k + rng.Intn(len(perm)-k)
				perm[k], perm[j] = perm[j], perm[k]
				p := perm[k]
				in.add([]int64{int64(ch/grid*side + p/side + 1), int64(ch%grid*side + p%side + 1)}, rng.Int63n(1000))
			}
		}
		out = append(out, in)
	}
	return out
}

// genHashHot builds the two 1-D arrays of hash_hot and wide_plan: the join
// key is the attribute. Exactly 1% of each side's cells sit on 4 hot keys,
// split evenly, so a handful of join units own most of the output; the rest
// draw uniform keys from a domain of 1.25·cells. The hot cells arrive
// together: on both sides they sit in the second chunk, so the planner has
// a reason to keep every hot unit on that chunk's node, and the product
// skew it cannot see lands on one node whatever the seed.
//
// A chunk count that the node count does not divide leaves some nodes with
// one chunk more than others, and that storage skew is what keeps the Tabu
// planner searching (wide_plan). Its search is chaotic in the slice sizes:
// re-drawing a handful of keys moves plan wall, bytes and modeled cost by a
// quarter. With fixedKeys every chunk therefore holds the same keys under
// every seed, and the seed only deals them to the chunk's cells.
func genHashHot(cells, chunks int, fixedKeys bool, seed int64) []*arrayInput {
	chunk := (cells + chunks - 1) / chunks
	var out []*arrayInput
	for s, name := range []string{"A<v", "B<w"} {
		rng := rand.New(rand.NewSource(seed*16 + 4 + int64(s)))
		keyRng := rng
		if fixedKeys {
			keyRng = rand.New(rand.NewSource(int64(s)))
		}
		in := &arrayInput{schema: fmt.Sprintf("%s:int>[i=1,%d,%d]", name, cells, chunk), nd: 1, na: 1}
		keys := make([]int64, cells)
		for i := range keys {
			keys[i] = 4 + keyRng.Int63n(int64(cells)*5/4)
		}
		for k, i := range keyRng.Perm(chunk)[:cells/100] {
			keys[chunk+i] = int64(k % 4)
		}
		for c := 0; fixedKeys && c < cells; c += chunk {
			part := keys[c:min(c+chunk, cells)]
			rng.Shuffle(len(part), func(i, j int) { part[i], part[j] = part[j], part[i] })
		}
		for i, key := range keys {
			in.add([]int64{int64(i + 1)}, key)
		}
		out = append(out, in)
	}
	return out
}

// genServePair builds one joinable pair of serve_mix with unique coordinates
// per side, after internal/servebench: 8 chunks over a domain of 2·cells,
// each chunk filled from its start, so a chunk's matches are the shorter of
// its two fills. A uniform pair fills every chunk alike; a skewed pair deals
// the cells by Zipf(skew) and spills what a chunk cannot hold into the next.
func genServePair(a, b string, cells int, skew float64, seed, stream int64) []*arrayInput {
	const nchunks = 8
	chunk := cells * 2 / nchunks
	var out []*arrayInput
	for s, name := range []string{a + "<v", b + "<w"} {
		rng := rand.New(rand.NewSource(seed*16 + stream + int64(s)))
		in := &arrayInput{schema: fmt.Sprintf("%s:int>[i=1,%d,%d]", name, chunk*nchunks, chunk), nd: 1, na: 1}
		fill := zipfCounts(nchunks, skew, cells, stream+int64(s), rng)
		for k, spill := 0, 0; k < 2*nchunks; k++ {
			c := k % nchunks
			fill[c] += spill
			spill = max(fill[c]-chunk, 0)
			fill[c] -= spill
		}
		for c, n := range fill {
			for j := 0; j < n; j++ {
				in.add([]int64{int64(c*chunk + j + 1)}, rng.Int63n(1000))
			}
		}
		out = append(out, in)
	}
	return out
}

// Ingest geometry: ship tracks over time t and position x, with ship id and
// speed as attributes; the redimension turns ship into a dimension.
const (
	ingestShips     = 2048
	ingestShipChunk = 128
	ingestTimeChunk = 64
	ingestPosChunk  = 256
)

// genIngest builds the AIS-like array of ingest_redim: every ship reports
// from a home port whose popularity is Zipf(1.2) over 64 ports, so most
// cells pile into a few position chunks. Ships report equally often and at
// evenly spread times, which keeps every chunk's cell count close to the
// same under every seed. Coordinates (t, x) are unique.
func genIngest(cells int, seed int64) (in *arrayInput, steps, positions int) {
	rng := rand.New(rand.NewSource(seed*16 + 12))
	steps = max(cells/64, ingestTimeChunk)
	const ports = 64
	positions = ports * ingestPosChunk
	// Which ship sails from which port is a constant of the workload.
	portOf := rand.NewZipf(rand.New(rand.NewSource(12)), 1.2, 1, ports-1)
	in = &arrayInput{nd: 2, na: 2}
	used := make(map[[2]int64]bool, cells)
	for ship := 0; ship < ingestShips; ship++ {
		home := int(portOf.Uint64())
		reports := cells / ingestShips
		if ship < cells%ingestShips {
			reports++
		}
		for j := 0; j < reports; j++ {
			t := int64((float64(j)+rng.Float64())*float64(steps)/float64(reports)) + 1
			x := int64(home*ingestPosChunk + rng.Intn(ingestPosChunk) + 1)
			for used[[2]int64{t, x}] {
				x = int64(home*ingestPosChunk + rng.Intn(ingestPosChunk) + 1)
			}
			used[[2]int64{t, x}] = true
			in.add([]int64{t, x}, int64(ship), int64(rng.Intn(30)))
		}
	}
	return in, steps, positions
}

// oracle is what a query's output must be: the match count and an
// order-independent checksum, the sum of hashRecord over the output records.
type oracle struct {
	matches int64
	sum     uint64
}

// hashRecord mixes one output record (FNV-1a over its integers, then a
// finalizer so that summing records keeps the bits independent).
func hashRecord(vals ...int64) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range vals {
		for s := 0; s < 64; s += 8 {
			h ^= uint64(v>>s) & 0xff
			h *= 1099511628211
		}
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// joinSpec tells the oracle how a template joins its two inputs: the join
// key of a row of either side, and the output record of a matching pair.
type joinSpec struct {
	key    func(in *arrayInput, row int) uint64
	record func(l *arrayInput, lr int, r *arrayInput, rr int) uint64
}

// bruteJoin computes the oracle by sorting both sides on the key and
// crossing every group of equal keys — no code shared with the engine.
func bruteJoin(l, r *arrayInput, js joinSpec) oracle {
	type kr struct {
		key uint64
		row int32
	}
	keyed := func(in *arrayInput) []kr {
		ks := make([]kr, in.rows())
		for i := range ks {
			ks[i] = kr{js.key(in, i), int32(i)}
		}
		sort.Slice(ks, func(i, j int) bool { return ks[i].key < ks[j].key })
		return ks
	}
	lk, rk := keyed(l), keyed(r)
	var o oracle
	for i, j := 0, 0; i < len(lk) && j < len(rk); {
		switch {
		case lk[i].key < rk[j].key:
			i++
		case lk[i].key > rk[j].key:
			j++
		default:
			key := lk[i].key
			je := j
			for je < len(rk) && rk[je].key == key {
				je++
			}
			for ; i < len(lk) && lk[i].key == key; i++ {
				for x := j; x < je; x++ {
					o.matches++
					o.sum += js.record(l, int(lk[i].row), r, int(rk[x].row))
				}
			}
			j = je
		}
	}
	return o
}
