package shufflejoin

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"shufflejoin/internal/array"
	"shufflejoin/internal/cluster"
	"shufflejoin/internal/pipeline"
)

// buildTestPair creates one joinable array pair with unique coordinates
// (linear join output) for the serving tests.
func buildTestPair(t *testing.T, db *DB, a, b string, cells int) {
	t.Helper()
	domain := int64(cells) * 2
	chunk := domain / 8
	if chunk < 1 {
		chunk = 1
	}
	for i, name := range []string{a, b} {
		attr := "v"
		if i == 1 {
			attr = "w"
		}
		ar, err := db.CreateArray(fmt.Sprintf("%s<%s:int>[i=1,%d,%d]", name, attr, domain, chunk))
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < cells; j++ {
			// Both sides share even coordinates; side b also fills odd
			// ones, so the join matches exactly the even overlap.
			coord := int64(j)*2 + 1 + int64(i)
			if coord > domain {
				coord = int64(j) + 1
			}
			if err := ar.Insert([]int64{coord}, int64(j*7+i)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// serveFingerprint canonicalizes everything a query's result guarantees
// to be scheduling-independent: the chosen plan, join statistics,
// modeled phase times, and every output cell in deterministic order.
// Real wall-clock quantities (PlanSeconds, TotalSeconds) and
// interleaving-dependent provenance (PlanSource: a concurrent duplicate
// may be "cached" where the serial run planned) are deliberately
// excluded.
func serveFingerprint(r *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan=%s algo=%s matches=%d moved=%d clamped=%d peak=%d interned=%d\n",
		r.Plan, r.Algorithm, r.Matches, r.CellsMoved, r.ClampedCells, r.PeakBatchBytes, r.InternedStrings)
	fmt.Fprintf(&b, "align=%.12g compare=%.12g skew=%.12g straggler=%d lockwait=%.12g schema=%s\n",
		r.AlignSeconds, r.CompareSeconds, r.Skew, r.StragglerNode, r.LockWaitSeconds, r.OutputSchema)
	r.Scan(func(c Cell) bool {
		fmt.Fprintf(&b, "%v=%v\n", c.Coords, c.Values)
		return true
	})
	return b.String()
}

// TestConcurrentQueriesBitIdentical is the serving determinism stress
// test: one DB driven by 16 goroutines through a contended scheduler
// (fewer slots than clients, a small memory pool, mixed classes, a
// shared plan cache) must produce results bit-identical to the same
// queries run serially without any scheduler, while one writer keeps
// creating, sealing, redimensioning and saving arrays the queries do not
// read. Run under -race this also sweeps the engine's shared state
// (catalog versions, pools, cache, metrics) for data races.
func TestConcurrentQueriesBitIdentical(t *testing.T) {
	db, err := Open(4)
	if err != nil {
		t.Fatal(err)
	}
	buildTestPair(t, db, "CA", "CB", 600)
	buildTestPair(t, db, "CC", "CD", 1400)
	loadMultiWay(db)
	queries := []string{
		"SELECT CA.v, CB.w FROM CA, CB WHERE CA.i = CB.i",
		"SELECT CC.v, CD.w FROM CC, CD WHERE CC.i = CD.i",
		multiWayQuery, // k-way joins read one catalog version too
	}

	// Serial references, no scheduler attached.
	want := make([]string, len(queries))
	var saved *Result
	for i, q := range queries {
		res, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = serveFingerprint(res)
		saved = res
	}
	stop, churned := make(chan struct{}), make(chan error, 1)
	go func() { churned <- churnCatalog(db, saved, stop) }()

	s := db.NewScheduler(SchedulerConfig{MaxQueries: 4, MemoryPoolBytes: 64 << 20})
	cache := NewPlanCache()
	classes := []string{"interactive", "scan"}

	const goroutines = 16
	const perG = 6
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < perG; k++ {
				qi := (g + k) % len(queries)
				res, err := db.Query(queries[qi],
					WithScheduler(s),
					WithQueryClass(classes[(g+k)%2]),
					WithPlanCache(cache),
				)
				if err != nil {
					errs <- fmt.Errorf("goroutine %d query %d: %w", g, k, err)
					return
				}
				if got := serveFingerprint(res); got != want[qi] {
					errs <- fmt.Errorf("goroutine %d query %d: result diverges from serial run:\n got: %.200s\nwant: %.200s",
						g, k, got, want[qi])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	if err := <-churned; err != nil {
		t.Errorf("writer: %v", err)
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	snap := s.Snapshot()
	if snap.Inflight != 0 || snap.Interactive.Queued != 0 || snap.Scan.Queued != 0 {
		t.Errorf("scheduler not drained: %+v", snap)
	}
	if got := snap.Interactive.Admitted + snap.Scan.Admitted; got != goroutines*perG {
		t.Errorf("admitted %d queries, want %d", got, goroutines*perG)
	}
	if snap.MemReservedBytes != 0 {
		t.Errorf("memory pool not drained: %d bytes still reserved", snap.MemReservedBytes)
	}
}

// churnCatalog is a catalog writer: until stop closes, it creates, fills
// and seals an array, redimensions it, and saves a query's output, all
// under names no query reads, so every one of them publishes a new
// catalog version while queries run.
func churnCatalog(db *DB, saved *Result, stop <-chan struct{}) error {
	for n := int64(0); ; n++ {
		select {
		case <-stop:
			return nil
		default:
		}
		ar, err := db.CreateArray(fmt.Sprintf("W%d<v:int>[i=1,64,8]", n%4))
		if err != nil {
			return err
		}
		for i := int64(1); i <= 64; i += 3 {
			if err := ar.Insert([]int64{i}, i*n); err != nil {
				return err
			}
		}
		ar.Seal()
		if _, _, err := ar.Redimension(fmt.Sprintf("R%d<v:int>[i=1,64,16]", n%4)); err != nil {
			return err
		}
		if _, err := saved.SaveAs(db, "Saved"); err != nil {
			return err
		}
	}
}

// barrierHooks holds every query at the top of pipeline.Execute — past
// admission, before the first stage — until `parties` of them are there
// together, and records how many the scheduler then counted in flight.
type barrierHooks struct {
	parties  int32
	arrived  atomic.Int32
	release  chan struct{}
	sched    *Scheduler
	inflight atomic.Int32
	timedOut atomic.Bool
}

func (h *barrierHooks) QueryStarted(*pipeline.Progress) {
	if h.arrived.Add(1) == h.parties {
		h.inflight.Store(int32(h.sched.Snapshot().Inflight))
		close(h.release)
	}
	select {
	case <-h.release:
	case <-time.After(5 * time.Second):
		h.timedOut.Store(true)
	}
}

func (h *barrierHooks) QueryFinished(*pipeline.Progress, *pipeline.Report, error) {}

// TestServeRunsQueriesConcurrently pins what a throughput ratio only
// suggests: with MaxQueries 4 and 4 client goroutines, four queries are
// inside Execute at the same moment. A scheduler that serialized them
// would leave the first query waiting at the barrier until it times out.
// Deterministic on any core count — no throughput is timed.
func TestServeRunsQueriesConcurrently(t *testing.T) {
	db, err := Open(2)
	if err != nil {
		t.Fatal(err)
	}
	buildTestPair(t, db, "PA", "PB", 300)
	const parties = 4
	s := db.NewScheduler(SchedulerConfig{MaxQueries: parties})
	h := &barrierHooks{parties: parties, release: make(chan struct{}), sched: s}
	withBarrier := func(c *queryConfig) error { c.hooks = h; return nil }

	errs := make(chan error, parties)
	for i := 0; i < parties; i++ {
		go func() {
			_, err := db.Query("SELECT PA.v, PB.w FROM PA, PB WHERE PA.i = PB.i", WithScheduler(s), withBarrier)
			errs <- err
		}()
	}
	for i := 0; i < parties; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	if h.timedOut.Load() {
		t.Fatalf("the %d queries did not all reach Execute together within 5s", parties)
	}
	if got := h.inflight.Load(); got != parties {
		t.Errorf("scheduler counted %d queries in flight at the barrier, want %d", got, parties)
	}
	if snap := s.Snapshot(); snap.Inflight != 0 || snap.Interactive.Queued != 0 || snap.MemReservedBytes != 0 {
		t.Errorf("scheduler not drained: %+v", snap)
	}
}

// parkHooks holds a query at the top of pipeline.Execute, past its
// catalog snapshot: it closes parked on arrival and waits for release.
type parkHooks struct{ parked, release chan struct{} }

func (h parkHooks) QueryStarted(*pipeline.Progress) {
	close(h.parked)
	<-h.release
}

func (parkHooks) QueryFinished(*pipeline.Progress, *pipeline.Report, error) {}

// TestWritersDoNotWaitForAQuery parks a query inside Execute and runs two
// writers meanwhile: SaveAs republishes the left operand's name with
// values of a far wider range, and Redimension reorganizes the right
// operand. Neither may wait for the query. Released, the query must
// return exactly its serial result: every name it resolves, the attribute
// histograms that size its inferred join dimension included, resolves in
// the catalog version it pinned.
func TestWritersDoNotWaitForAQuery(t *testing.T) {
	db, err := Open(2)
	if err != nil {
		t.Fatal(err)
	}
	wa, _ := db.CreateArray("WA<v:int>[i=1,400,50]")
	wb, _ := db.CreateArray("WB<w:int>[j=1,400,50]")
	wide, _ := db.CreateArray("Wide<v:int>[i=1,400,50]")
	for i := int64(1); i <= 400; i++ {
		for _, err := range []error{wa.Insert([]int64{i}, i%97), wb.Insert([]int64{i}, i%89), wide.Insert([]int64{i}, i*1000)} {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	const q = "SELECT WA.v, WB.w FROM WA, WB WHERE WA.v = WB.w"
	serial, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	replacement, err := db.Query("SELECT Wide.v FROM Wide, WB WHERE Wide.i = WB.j")
	if err != nil {
		t.Fatal(err)
	}

	h := parkHooks{parked: make(chan struct{}), release: make(chan struct{})}
	parked := make(chan *Result, 1)
	go func() {
		res, err := db.Query(q, func(c *queryConfig) error { c.hooks = h; return nil })
		if err != nil {
			t.Error(err)
		}
		parked <- res
	}()
	<-h.parked

	var writers sync.WaitGroup
	writers.Add(2)
	go func() {
		defer writers.Done()
		if _, err := replacement.SaveAs(db, "WA"); err != nil {
			t.Error(err)
		}
	}()
	go func() {
		defer writers.Done()
		if _, _, err := wb.Redimension("WBr<w:int>[j=1,400,100]"); err != nil {
			t.Error(err)
		}
	}()
	written := make(chan struct{})
	go func() { writers.Wait(); close(written) }()
	select {
	case <-written:
	case <-time.After(5 * time.Second):
		t.Error("writers waited for the parked query")
	}
	close(h.release)
	<-written
	res := <-parked
	if res == nil {
		t.FailNow()
	}
	if got, want := serveFingerprint(res), serveFingerprint(serial); got != want {
		t.Errorf("query diverges from its serial run once writers republished its operands:\n got: %.300s\nwant: %.300s", got, want)
	}
}

// TestQueryDoesNotWaitForRedistribute holds a Redimension inside its data
// movement and issues a query over other arrays meanwhile: the query must
// return while the Redimension is still held.
func TestQueryDoesNotWaitForRedistribute(t *testing.T) {
	db, err := Open(2)
	if err != nil {
		t.Fatal(err)
	}
	buildTestPair(t, db, "QA", "QB", 200)
	rc, _ := db.CreateArray("RC<v:int>[i=1,400,50]")
	for i := int64(1); i <= 400; i += 2 {
		if err := rc.Insert([]int64{i}, i); err != nil {
			t.Fatal(err)
		}
	}

	entered, release := make(chan struct{}), make(chan struct{})
	real := redistribute
	defer func() { redistribute = real }()
	redistribute = func(c *cluster.Cluster, d *cluster.Distributed, target *array.Schema, opt pipeline.RedistributeOptions) (*cluster.Distributed, *pipeline.RedistributeReport, error) {
		close(entered)
		<-release
		return real(c, d, target, opt)
	}
	redimensioned := make(chan error, 1)
	go func() {
		_, _, err := rc.Redimension("RCr<v:int>[i=1,400,100]")
		redimensioned <- err
	}()
	<-entered

	queried := make(chan error, 1)
	go func() {
		_, err := db.Query("SELECT QA.v, QB.w FROM QA, QB WHERE QA.i = QB.i")
		queried <- err
	}()
	select {
	case err := <-queried:
		if err != nil {
			t.Error(err)
		}
	case <-time.After(5 * time.Second):
		t.Error("the query waited for a Redimension held in Redistribute")
		defer func() { <-queried }()
	}
	close(release)
	if err := <-redimensioned; err != nil {
		t.Fatal(err)
	}
}

// withTimeout is WithQueryContext with a context that expires after d.
func withTimeout(t *testing.T, d time.Duration) QueryOption {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	t.Cleanup(cancel)
	return WithQueryContext(ctx)
}

// TestQueryTimeoutAndCancel pins the per-query deadline and context
// paths: both surface the standard context errors, and a timed-out
// query releases its scheduler resources.
func TestQueryTimeoutAndCancel(t *testing.T) {
	db, err := Open(2)
	if err != nil {
		t.Fatal(err)
	}
	buildTestPair(t, db, "TA", "TB", 1200)
	q := "SELECT TA.v, TB.w FROM TA, TB WHERE TA.i = TB.i"

	if _, err := db.Query(q, withTimeout(t, time.Nanosecond)); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("timeout error = %v, want DeadlineExceeded", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.Query(q, WithQueryContext(ctx)); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled-context error = %v, want Canceled", err)
	}

	s := db.NewScheduler(SchedulerConfig{MaxQueries: 2, MemoryPoolBytes: 8 << 20})
	if _, err := db.Query(q, WithScheduler(s), withTimeout(t, time.Nanosecond)); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("scheduled timeout error = %v, want DeadlineExceeded", err)
	}
	snap := s.Snapshot()
	if snap.Inflight != 0 || snap.MemReservedBytes != 0 {
		t.Errorf("timed-out query leaked scheduler resources: %+v", snap)
	}

	// A generous timeout must not perturb the result.
	plain, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	timed, err := db.Query(q, withTimeout(t, time.Minute), WithScheduler(s))
	if err != nil {
		t.Fatal(err)
	}
	if serveFingerprint(plain) != serveFingerprint(timed) {
		t.Error("query under timeout+scheduler diverges from plain run")
	}
}

// TestQueryOptionValidation covers the new options' error paths.
func TestQueryOptionValidation(t *testing.T) {
	db, err := Open(2)
	if err != nil {
		t.Fatal(err)
	}
	for name, opt := range map[string]QueryOption{
		"nil scheduler": WithScheduler(nil),
		"bad class":     WithQueryClass("batch"),
		"nil context":   WithQueryContext(nil),
	} {
		if _, err := db.Query("SELECT A.v FROM A, B WHERE A.i = B.i", opt); err == nil {
			t.Errorf("%s: expected an option error", name)
		}
	}
}
