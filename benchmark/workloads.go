package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"shufflejoin"
)

// bench is one workload, ready to run. run is the timed system work of op i
// and check is the harness's untimed verification of what run returned; both
// may be called from several client goroutines at once. The end-to-end pass
// uses only these methods, which drive only the public facade.
type bench interface {
	// setup loads the inputs, seals them and runs one warm-up op, replacing
	// any earlier set-up. It returns the time spent inside the system.
	setup() (time.Duration, error)
	run(i int) (any, error)
	check(i int, out any) error
	// kind is the query template op i runs, out of kinds.
	kind(i int) int
	kinds() int
	clients() int
	// modeled is the deterministic modeled seconds of one op (mix-weighted).
	modeled() float64
	traced
}

// workloadNames is the order the suite runs in; BENCHMARK.json lists the same.
var workloadNames = []string{"merge_skew", "hash_hot", "wide_plan", "serve_mix", "ingest_redim"}

func newBench(name string, sc scale, seed int64, outDir string) (bench, error) {
	pairKey := func(in *arrayInput, r int) uint64 { return uint64(in.coord(r, 0))<<32 | uint64(in.coord(r, 1)) }
	attrKey := func(in *arrayInput, r int) uint64 { return uint64(in.val(r, 0)) }
	dimKey := func(in *arrayInput, r int) uint64 { return uint64(in.coord(r, 0)) }
	// dimJoin is the oracle of "SELECT X.v, Y.w FROM X, Y WHERE X.i = Y.i":
	// the output keeps the shared dimension and carries both attributes.
	dimJoin := joinSpec{key: dimKey, record: func(l *arrayInput, lr int, r *arrayInput, rr int) uint64 {
		return hashRecord(l.coord(lr, 0), l.val(lr, 0), r.val(rr, 0))
	}}
	const hashQuery = "SELECT A.i, B.i INTO T<ai:int, bi:int>[] FROM A JOIN B ON A.v = B.w"
	hashJoin := joinSpec{key: attrKey, record: func(l *arrayInput, lr int, r *arrayInput, rr int) uint64 {
		return hashRecord(l.coord(lr, 0), r.coord(rr, 0))
	}}

	switch name {
	case "merge_skew":
		return newQueryBench(4, genMergeSkew(sc, seed), []*template{{
			query: "SELECT A.v, B.w FROM A, B WHERE A.i = B.i AND A.j = B.j",
			spec: joinSpec{key: pairKey, record: func(l *arrayInput, lr int, r *arrayInput, rr int) uint64 {
				return hashRecord(l.coord(lr, 0), l.coord(lr, 1), l.val(lr, 0), r.val(rr, 0))
			}},
		}}), nil
	case "hash_hot":
		return newQueryBench(4, genHashHot(sc.hashCells, 64, false, seed), []*template{{
			query: hashQuery, planner: "tabu", rowDim: true, spec: hashJoin,
		}}), nil
	case "wide_plan":
		return newQueryBench(sc.wideNodes, genHashHot(sc.wideCells, 80, true, seed), []*template{{
			query: hashQuery, planner: "tabu", rowDim: true, spec: hashJoin,
		}}), nil
	case "serve_mix":
		arrays := append(genServePair("IA", "IB", sc.serveInteractive, 0, seed, 8),
			genServePair("SA", "SB", sc.serveScan, 1.2, seed, 10)...)
		b := newQueryBench(4, arrays, []*template{
			{query: "SELECT IA.v, IB.w FROM IA, IB WHERE IA.i = IB.i", class: "interactive", spec: dimJoin},
			{query: "SELECT SA.v, SB.w FROM SA, SB WHERE SA.i = SB.i", class: "scan", left: 2, spec: dimJoin},
		})
		// 75/25 interactive/scan: one scan in every four ops, at a place
		// drawn from the seed, so that any stretch of ops has the same mix.
		rng := rand.New(rand.NewSource(seed))
		b.mix = make([]uint8, 4096)
		for i := 0; i < len(b.mix); i += 4 {
			b.mix[i+rng.Intn(4)] = 1
		}
		b.serving = true
		return b, nil
	case "ingest_redim":
		return newIngestBench(sc, seed, outDir), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// template is one query text of a workload with its oracle.
type template struct {
	query   string
	class   string // scheduling class; "" outside serve_mix
	planner string // physical planner; "" is the facade default (MBH)
	rowDim  bool   // output coordinates are synthetic row ids: not in the checksum
	left    int    // index of the left input; the right input follows it
	spec    joinSpec

	want oracle
	// pinned is the modeled seconds of the warm-up op. Modeled time is
	// deterministic, so every later op must reproduce it bit for bit.
	pinned float64
}

// verify checks one output against the oracle. scan streams the output's
// cells as integer coordinates and attribute values.
func (t *template) verify(matches int64, modeled float64, scan func(fn func(coords, vals []int64))) error {
	if matches != t.want.matches {
		return fmt.Errorf("%d matches, oracle has %d", matches, t.want.matches)
	}
	if t.pinned != 0 && modeled != t.pinned {
		return fmt.Errorf("modeled %v s, warm-up op had %v s", modeled, t.pinned)
	}
	var n int64
	var sum uint64
	rec := make([]int64, 0, 8)
	scan(func(coords, vals []int64) {
		rec = rec[:0]
		if !t.rowDim {
			rec = append(rec, coords...)
		}
		sum += hashRecord(append(rec, vals...)...)
		n++
	})
	if n != t.want.matches || sum != t.want.sum {
		return fmt.Errorf("output has %d cells with checksum %x, oracle has %d with %x", n, sum, t.want.matches, t.want.sum)
	}
	return nil
}

// queryBench runs join queries against arrays loaded once in set-up.
type queryBench struct {
	nodes     int
	arrays    []*arrayInput
	templates []*template
	mix       []uint8 // op i runs templates[mix[i%len(mix)]]
	// serving routes every query through a 2-slot scheduler and a shared
	// warm plan cache, from 2 closed-loop clients (serve_mix).
	serving bool

	db   *shufflejoin.DB
	opts [][]shufflejoin.QueryOption // per template
	layerState
}

func newQueryBench(nodes int, arrays []*arrayInput, templates []*template) *queryBench {
	for _, t := range templates {
		t.want = bruteJoin(arrays[t.left], arrays[t.left+1], t.spec)
	}
	return &queryBench{nodes: nodes, arrays: arrays, templates: templates, mix: []uint8{0}}
}

func (b *queryBench) kind(i int) int { return int(b.mix[i%len(b.mix)]) }
func (b *queryBench) kinds() int     { return len(b.templates) }

func (b *queryBench) clients() int {
	if b.serving {
		return 2
	}
	return 1
}

func (b *queryBench) modeled() float64 {
	var sum float64
	for _, k := range b.mix {
		sum += b.templates[k].pinned
	}
	return sum / float64(len(b.mix))
}

func (b *queryBench) setup() (time.Duration, error) {
	start := time.Now()
	db, err := shufflejoin.Open(b.nodes)
	if err != nil {
		return 0, err
	}
	for _, in := range b.arrays {
		ar, err := db.CreateArray(in.schema)
		if err != nil {
			return 0, err
		}
		if in.hashed {
			ar.DistributeByHash()
		}
		vals := make([]any, in.na)
		for r := 0; r < in.rows(); r++ {
			for k := range vals {
				vals[k] = in.val(r, k)
			}
			if err := ar.Insert(in.coords[r*in.nd:(r+1)*in.nd], vals...); err != nil {
				return 0, err
			}
		}
		ar.Seal()
	}
	shared := []shufflejoin.QueryOption{shufflejoin.WithParallelism(1)}
	if b.serving {
		shared = append(shared,
			shufflejoin.WithPlanCache(shufflejoin.NewPlanCache()),
			shufflejoin.WithScheduler(db.NewScheduler(shufflejoin.SchedulerConfig{MaxQueries: 2})))
	}
	b.db, b.opts = db, make([][]shufflejoin.QueryOption, len(b.templates))
	for k, t := range b.templates {
		b.opts[k] = append([]shufflejoin.QueryOption(nil), shared...)
		if t.planner != "" {
			b.opts[k] = append(b.opts[k], shufflejoin.WithPlanner(t.planner))
		}
		if t.class != "" {
			b.opts[k] = append(b.opts[k], shufflejoin.WithQueryClass(t.class))
		}
	}
	// Warm-up: one op per template fills lazy histograms, pools and the
	// plan cache, and pins the modeled time.
	var harness time.Duration
	for k, t := range b.templates {
		t.pinned = 0
		out, err := b.db.Query(t.query, b.opts[k]...)
		if err != nil {
			return 0, fmt.Errorf("warm-up %q: %w", t.query, err)
		}
		t0 := time.Now()
		if err := b.checkResult(t, out); err != nil {
			return 0, fmt.Errorf("warm-up %q: %w", t.query, err)
		}
		t.pinned = out.AlignSeconds + out.CompareSeconds
		harness += time.Since(t0)
	}
	return time.Since(start) - harness, nil
}

func (b *queryBench) run(i int) (any, error) {
	k := b.kind(i)
	return b.db.Query(b.templates[k].query, b.opts[k]...)
}

func (b *queryBench) check(i int, out any) error {
	t := b.templates[b.kind(i)]
	if traced, ok := out.(*layerOut); ok {
		return b.checkLayerOut(t, traced)
	}
	return b.checkResult(t, out.(*shufflejoin.Result))
}

func (b *queryBench) checkResult(t *template, res *shufflejoin.Result) error {
	if res.ClampedCells != 0 {
		return fmt.Errorf("%d clamped cells", res.ClampedCells)
	}
	vals := make([]int64, 0, 4)
	return t.verify(res.Matches, res.AlignSeconds+res.CompareSeconds, func(fn func(coords, vals []int64)) {
		res.Scan(func(c shufflejoin.Cell) bool {
			vals = vals[:0]
			for _, v := range c.Values {
				vals = append(vals, v.(int64))
			}
			fn(c.Coords, vals)
			return true
		})
	})
}

// ingestBench is the write path: every op builds a database from scratch.
type ingestBench struct {
	in     *arrayInput
	order  []int // shuffled insert order
	path   string
	source string // schema of the inserted array S; the file holds the same cells as L
	target string // redimension target R
	chunks [2]int // oracle: distinct chunks of the cells under source and target
	pinned shufflejoin.ReorgReport
}

type ingestOut struct {
	loaded, inserted, redim *shufflejoin.Array
	rep                     *shufflejoin.ReorgReport
}

func newIngestBench(sc scale, seed int64, outDir string) *ingestBench {
	in, steps, positions := genIngest(sc.ingestCells, seed)
	dims := fmt.Sprintf("[t=1,%d,%d, x=1,%d,%d]", steps, ingestTimeChunk, positions, ingestPosChunk)
	in.schema = "L<ship:int, speed:int>" + dims
	b := &ingestBench{
		in:     in,
		order:  rand.New(rand.NewSource(seed)).Perm(in.rows()),
		path:   filepath.Join(outDir, fmt.Sprintf("ingest-%d-%d.sjar", seed, os.Getpid())),
		source: "S<ship:int, speed:int>" + dims,
		target: fmt.Sprintf("R<speed:int, x:int>[ship=0,%d,%d, t=1,%d,%d]", ingestShips-1, ingestShipChunk, steps, ingestTimeChunk),
	}
	// Oracle: the distinct chunks the cells occupy before and after.
	src, dst := map[[2]int64]bool{}, map[[2]int64]bool{}
	for r := 0; r < in.rows(); r++ {
		t, x, ship := in.coord(r, 0)-1, in.coord(r, 1)-1, in.val(r, 0)
		src[[2]int64{t / ingestTimeChunk, x / ingestPosChunk}] = true
		dst[[2]int64{ship / ingestShipChunk, t / ingestTimeChunk}] = true
	}
	b.chunks = [2]int{len(src), len(dst)}
	return b
}

func (b *ingestBench) kind(int) int     { return 0 }
func (b *ingestBench) kinds() int       { return 1 }
func (b *ingestBench) clients() int     { return 1 }
func (b *ingestBench) modeled() float64 { return b.pinned.TotalSeconds }

func (b *ingestBench) setup() (time.Duration, error) {
	start := time.Now()
	if err := os.MkdirAll(filepath.Dir(b.path), 0o755); err != nil {
		return 0, err
	}
	if err := writeArrayFile(b.path, b.in); err != nil {
		return 0, err
	}
	b.pinned = shufflejoin.ReorgReport{}
	out, err := b.ingest(nil)
	if err != nil {
		return 0, err
	}
	d := time.Since(start)
	if err := b.check(0, out); err != nil {
		return 0, fmt.Errorf("warm-up: %w", err)
	}
	b.pinned = *out.rep
	return d, nil
}

func (b *ingestBench) cleanup() { os.Remove(b.path) }

func (b *ingestBench) run(int) (any, error) { return b.ingest(nil) }

// The traced pass of ingest_redim spans the facade calls of the same op.
func (b *ingestBench) tracedSetup(*tracer) error { return nil }
func (b *ingestBench) tracedRun(tr *tracer, _ int) (any, error) {
	return b.ingest(tr.beginOp("op", 0))
}
func (b *ingestBench) replay(*tracer, int) error       { return nil }
func (b *ingestBench) layerCounts() map[string]float64 { return nil }

// ingest is one op. With a tracer it records one span per facade call.
func (b *ingestBench) ingest(tr *opTrace) (*ingestOut, error) {
	defer tr.finish(nil)
	db, err := shufflejoin.Open(4)
	if err != nil {
		return nil, err
	}
	out := &ingestOut{}
	sp := tr.start("storage.read")
	out.loaded, err = db.LoadFile(b.path)
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = tr.start("array.insert")
	out.inserted, err = db.CreateArray(b.source)
	if err != nil {
		return nil, err
	}
	in := b.in
	for _, r := range b.order {
		if err := out.inserted.Insert(in.coords[r*2:r*2+2], in.val(r, 0), in.val(r, 1)); err != nil {
			return nil, err
		}
	}
	sp.end()
	sp = tr.start("cluster.seal")
	out.inserted.Seal()
	sp.end()
	sp = tr.start("exec.redistribute")
	out.redim, out.rep, err = out.inserted.Redimension(b.target)
	sp.end()
	return out, err
}

func (b *ingestBench) check(_ int, o any) error {
	out := o.(*ingestOut)
	n := int64(b.in.rows())
	for _, c := range []struct {
		name   string
		ar     *shufflejoin.Array
		chunks int
	}{{"loaded", out.loaded, b.chunks[0]}, {"inserted", out.inserted, b.chunks[0]}, {"redimensioned", out.redim, b.chunks[1]}} {
		if c.ar.CellCount() != n || c.ar.ChunkCount() != c.chunks {
			return fmt.Errorf("%s array has %d cells in %d chunks, oracle has %d in %d",
				c.name, c.ar.CellCount(), c.ar.ChunkCount(), n, c.chunks)
		}
	}
	// The modeled shuffle repeats bit for bit. The modeled sort time is a
	// float sum in map order inside exec.Redistribute, so its last bits vary.
	p, r := b.pinned, *out.rep
	if p != (shufflejoin.ReorgReport{}) && (r.CellsMoved != p.CellsMoved || r.AlignSeconds != p.AlignSeconds ||
		math.Abs(r.SortSeconds-p.SortSeconds) > 1e-9*p.SortSeconds) {
		return fmt.Errorf("reorg report %+v, warm-up op had %+v", r, p)
	}
	return nil
}
