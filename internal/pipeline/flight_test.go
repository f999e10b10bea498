package pipeline_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"shufflejoin/internal/batch"
	"shufflejoin/internal/flight"
	"shufflejoin/internal/join"
	"shufflejoin/internal/pipeline"
)

// eventsSince returns the events flight.Default recorded from sequence
// number mark on, the one query's trail when mark was taken just before
// it (tests run one at a time).
func eventsSince(mark uint64) []flight.Event {
	var out []flight.Event
	for _, e := range flight.Default.Snapshot(0) {
		if e.Seq >= mark {
			out = append(out, e)
		}
	}
	return out
}

// chargedSince reports whether flight.Default recorded a budget charge
// from sequence number mark on: a ledger that closes because nothing
// was charged shows nothing.
func chargedSince(mark uint64) bool {
	return slices.ContainsFunc(eventsSince(mark), func(e flight.Event) bool { return e.Type == flight.EvBudgetCharge })
}

// TestFlightRecordingEquivalence is the flight recorder's determinism
// contract: a recorded run is bit-for-bit identical to an unrecorded
// one — output cells, modeled times, trace and profile fingerprints —
// at every Parallelism setting. Events are telemetry, never inputs. The
// unrecorded runs swap flight.Default for nil.
func TestFlightRecordingEquivalence(t *testing.T) {
	a := buildArray("A<v:int>[i=1,300,30]", 21, 150, 25)
	b := buildArray("B<w:int>[j=1,300,30]", 22, 140, 25)
	pred := join.Predicate{{Left: join.Term{Name: "v"}, Right: join.Term{Name: "w"}}}
	pars := []int{1, 4, 0}

	type run struct {
		rep *pipeline.Report
		fp  string
	}
	exec := func(t *testing.T, par int) run {
		t.Helper()
		c := newCluster(t, 4, a.Clone(), b.Clone())
		rep, err := pipeline.Run(c, "A", "B", pred, nil, pipeline.Options{
			Selectivity: 0.5,
			Parallelism: par,
		})
		if err != nil {
			t.Fatalf("Run(par=%d): %v", par, err)
		}
		return run{rep, rendered(t, rep)}
	}

	unrecorded := map[int]run{}
	t.Run("unrecorded", func(t *testing.T) {
		saved := flight.Default
		flight.Default = nil
		t.Cleanup(func() { flight.Default = saved })
		for _, par := range pars {
			unrecorded[par] = exec(t, par)
		}
	})
	if len(unrecorded) != len(pars) {
		t.FailNow()
	}

	for _, par := range pars {
		t.Run(fmt.Sprintf("par=%d", par), func(t *testing.T) {
			mark := flight.Default.Stats().Recorded
			g := exec(t, par)
			got, want := g.rep, unrecorded[par].rep

			if g.fp != unrecorded[par].fp {
				t.Errorf("rendered metrics and trace differ between recorded and unrecorded runs")
			}
			if got.Profile().Fingerprint() != want.Profile().Fingerprint() {
				t.Errorf("profile fingerprints differ:\n--- recorded ---\n%s\n--- unrecorded ---\n%s",
					got.Profile().Fingerprint(), want.Profile().Fingerprint())
			}
			if got.Matches != want.Matches || got.AlignTime != want.AlignTime || got.CompareTime != want.CompareTime {
				t.Errorf("recorded run diverged: matches %d/%d align %v/%v compare %v/%v",
					got.Matches, want.Matches, got.AlignTime, want.AlignTime, got.CompareTime, want.CompareTime)
			}
			if !reflect.DeepEqual(cellsOf(got.Output), cellsOf(want.Output)) {
				t.Error("output cells differ between recorded and unrecorded runs")
			}

			// The recorded run actually left a trail, and the query's
			// lifecycle events bracket it in order.
			counts := map[flight.Type]int{}
			for _, e := range eventsSince(mark) {
				counts[e.Type]++
			}
			if counts[flight.EvQueryStart] != 1 || counts[flight.EvQueryFinish] != 1 {
				t.Errorf("lifecycle events = %v", counts)
			}
			if counts[flight.EvStageStart] != 6 || counts[flight.EvStageFinish] != 6 {
				t.Errorf("stage events = %d/%d, want 6/6", counts[flight.EvStageStart], counts[flight.EvStageFinish])
			}
			if counts[flight.EvBudgetCharge] == 0 || counts[flight.EvBudgetCredit] == 0 {
				t.Errorf("no budget events recorded: %v", counts)
			}
		})
	}
}

// TestStageFlightEvents: a query's trail in the ring is its lifecycle,
// its stage boundaries and its budget traffic, all under its query id;
// each stage-finish restates that stage's Report.Stages entry, and no
// event copies the rest of the Report. On four nodes the fixture's
// senders stall on receiver locks, which the Report records and the
// ring does not.
func TestStageFlightEvents(t *testing.T) {
	a := buildArray("A<v:int>[i=1,300,30]", 21, 150, 25)
	b := buildArray("B<w:int>[j=1,300,30]", 22, 140, 25)
	pred := join.Predicate{{Left: join.Term{Name: "v"}, Right: join.Term{Name: "w"}}}
	mark := flight.Default.Stats().Recorded
	rep, err := pipeline.Run(newCluster(t, 4, a, b), "A", "B", pred, nil, pipeline.Options{
		Selectivity: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Align.LockWaitTime <= 0 {
		t.Fatalf("fixture produced no lock contention: %+v", rep.Align)
	}
	evs := eventsSince(mark)
	var finishes []flight.Event
	for _, e := range evs {
		if e.QID == 0 || e.QID != evs[0].QID {
			t.Fatalf("event %s has query id %d, want the query's %d", e.Type, e.QID, evs[0].QID)
		}
		switch e.Type {
		case flight.EvQueryStart, flight.EvQueryFinish, flight.EvStageStart, flight.EvBudgetCharge, flight.EvBudgetCredit:
		case flight.EvStageFinish:
			finishes = append(finishes, e)
		default:
			t.Errorf("unexpected %s event in the trail", e.Type)
		}
	}
	if len(finishes) != len(rep.Stages) {
		t.Fatalf("%d stage-finish events for %d stages", len(finishes), len(rep.Stages))
	}
	for i, e := range finishes {
		st := rep.Stages[i]
		if stage := flight.Default.LabelName(e.Args[0]); stage != st.Stage || flight.Float(e.Args[2]) != st.SimSeconds {
			t.Errorf("stage-finish %d = %s sim %v, want %s sim %v", i, stage, flight.Float(e.Args[2]), st.Stage, st.SimSeconds)
		}
	}
}

// TestFlightDefaultRecorderOn: with no flight options at all, queries
// record into the process-wide flight.Default ring — the recorder is on
// by default.
func TestFlightDefaultRecorderOn(t *testing.T) {
	a := buildArray("A<v:int>[i=1,100,20]", 31, 50, 15)
	b := buildArray("B<w:int>[j=1,100,20]", 32, 50, 15)
	pred := join.Predicate{{Left: join.Term{Name: "v"}, Right: join.Term{Name: "w"}}}
	c := newCluster(t, 2, a, b)
	before := flight.Default.Stats().Recorded
	if _, err := pipeline.Run(c, "A", "B", pred, nil, pipeline.Options{
		Selectivity: 0.5,
	}); err != nil {
		t.Fatal(err)
	}
	if after := flight.Default.Stats().Recorded; after <= before {
		t.Errorf("default recorder did not advance: %d -> %d", before, after)
	}
}

// installSink makes pm the process-wide postmortem sink until the test
// ends, then restores the one before it (CI installs one through
// $SHUFFLEJOIN_POSTMORTEM_DIR).
func installSink(t *testing.T, pm *flight.Postmortem) {
	t.Helper()
	old := flight.DefaultPostmortem()
	flight.SetDefaultPostmortem(pm)
	t.Cleanup(func() { flight.SetDefaultPostmortem(old) })
}

// bundleDirs lists the bundle directories under a postmortem root.
func bundleDirs(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading postmortem dir: %v", err)
	}
	var out []string
	for _, e := range entries {
		out = append(out, filepath.Join(dir, e.Name()))
	}
	return out
}

// readMeta parses a bundle's meta.json.
func readMeta(t *testing.T, bundle string) map[string]any {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(bundle, "meta.json"))
	if err != nil {
		t.Fatalf("bundle %s has no meta.json: %v", bundle, err)
	}
	var meta map[string]any
	if err := json.Unmarshal(data, &meta); err != nil {
		t.Fatalf("meta.json: %v", err)
	}
	return meta
}

// TestPostmortemOnStrictBudget: a strict-memory failure ships a complete
// diagnostic bundle named for the strict-budget reason.
func TestPostmortemOnStrictBudget(t *testing.T) {
	a := buildArray("A<v:int>[i=1,200,20]", 9, 120, 25)
	b := buildArray("B<w:int>[j=1,200,20]", 10, 110, 25)
	pred := join.Predicate{{Left: join.Term{Name: "v"}, Right: join.Term{Name: "w"}}}
	c := newCluster(t, 3, a, b)
	dir := t.TempDir()
	installSink(t, &flight.Postmortem{Dir: dir})

	_, err := pipeline.Run(c, "A", "B", pred, nil, pipeline.Options{
		Selectivity:  0.5,
		MemoryBudget: 256,
		Strict:       true,
	})
	if !errors.Is(err, batch.ErrBudget) {
		t.Fatalf("err = %v, want batch.ErrBudget", err)
	}

	bundles := bundleDirs(t, dir)
	if len(bundles) != 1 {
		t.Fatalf("bundles = %v, want exactly one", bundles)
	}
	bundle := bundles[0]
	meta := readMeta(t, bundle)
	if meta["reason"] != "strict-budget" {
		t.Errorf("reason = %v", meta["reason"])
	}
	for _, f := range []string{"flight.json", "failure.json", "profile.json", "progress.json", "goroutines.txt", "heap.pprof"} {
		if _, err := os.Stat(filepath.Join(bundle, f)); err != nil {
			t.Errorf("bundle missing %s: %v", f, err)
		}
	}
	// The flight dump contains the budget overflow that killed the query.
	data, _ := os.ReadFile(filepath.Join(bundle, "flight.json"))
	if !strings.Contains(string(data), "budget-overflow") {
		t.Error("flight.json does not record the budget overflow")
	}
	var failure map[string]any
	fdata, _ := os.ReadFile(filepath.Join(bundle, "failure.json"))
	if err := json.Unmarshal(fdata, &failure); err != nil {
		t.Fatalf("failure.json: %v", err)
	}
	if failure["stage"] != "slice-map" || !strings.Contains(failure["error"].(string), "budget") {
		t.Errorf("failure section = %v", failure)
	}
}

// TestPostmortemOnStrictBounds: a strict-bounds rejection is classified
// by its ErrBounds sentinel (not its message text) and ships a bundle
// named for the strict-bounds reason; with no sink installed, the same
// failure captures nothing.
func TestPostmortemOnStrictBounds(t *testing.T) {
	c, out, pred, _ := clampSetup(t)
	dir := t.TempDir()
	installSink(t, &flight.Postmortem{Dir: dir})
	_, err := pipeline.Run(c, "A", "B", pred, out, pipeline.Options{Strict: true})
	if !errors.Is(err, pipeline.ErrBounds) {
		t.Fatalf("err = %v, want pipeline.ErrBounds", err)
	}
	bundles := bundleDirs(t, dir)
	if len(bundles) != 1 {
		t.Fatalf("bundles = %v, want exactly one", bundles)
	}
	if meta := readMeta(t, bundles[0]); meta["reason"] != "strict-bounds" {
		t.Errorf("reason = %v, want strict-bounds", meta["reason"])
	}

	flight.SetDefaultPostmortem(nil)
	if _, err := pipeline.Run(c, "A", "B", pred, out, pipeline.Options{Strict: true}); !errors.Is(err, pipeline.ErrBounds) {
		t.Fatalf("err = %v, want pipeline.ErrBounds", err)
	}
	if bundles := bundleDirs(t, dir); len(bundles) != 1 {
		t.Errorf("bundles = %v after the sink was cleared, want the first one only", bundles)
	}
}

// panicStage is a pipeline stage that always panics, standing in for an
// engine bug.
type panicStage struct{}

func (panicStage) Name() string                     { return "panic-stage" }
func (panicStage) Run(*pipeline.QueryContext) error { panic("injected failure") }

// TestPostmortemOnPanic: a panicking stage captures a bundle with the
// panic value and stack, then re-panics to the caller.
func TestPostmortemOnPanic(t *testing.T) {
	a := buildArray("A<v:int>[i=1,100,20]", 41, 40, 15)
	b := buildArray("B<w:int>[j=1,100,20]", 42, 40, 15)
	pred := join.Predicate{{Left: join.Term{Name: "v"}, Right: join.Term{Name: "w"}}}
	c := newCluster(t, 2, a, b)
	dir := t.TempDir()
	installSink(t, &flight.Postmortem{Dir: dir})

	dl, err := c.Catalog.Lookup("A")
	if err != nil {
		t.Fatal(err)
	}
	dr, err := c.Catalog.Lookup("B")
	if err != nil {
		t.Fatal(err)
	}
	qc := pipeline.NewQueryContext(c, dl, dr, pred, nil, pipeline.Options{Selectivity: 0.5})
	mark := flight.Default.Stats().Recorded

	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Error("panic did not propagate to the caller")
			}
		}()
		pipeline.Execute(qc, []pipeline.Stage{pipeline.LogicalPlan{}, panicStage{}})
	}()

	bundles := bundleDirs(t, dir)
	if len(bundles) != 1 {
		t.Fatalf("bundles = %v, want exactly one", bundles)
	}
	meta := readMeta(t, bundles[0])
	if meta["reason"] != "panic" {
		t.Errorf("reason = %v", meta["reason"])
	}
	var failure map[string]any
	fdata, _ := os.ReadFile(filepath.Join(bundles[0], "failure.json"))
	if err := json.Unmarshal(fdata, &failure); err != nil {
		t.Fatalf("failure.json: %v", err)
	}
	if failure["panic"] != "injected failure" || failure["stage"] != "panic-stage" {
		t.Errorf("failure section = %v", failure)
	}
	if stack, _ := failure["stack"].(string); !strings.Contains(stack, "panicStage") {
		t.Error("failure section carries no stack trace")
	}
	// The postmortem flight event marks the trail.
	var marked bool
	for _, e := range eventsSince(mark) {
		if e.Type == flight.EvPostmortem && flight.Default.LabelName(e.Args[0]) == "panic" {
			marked = true
		}
	}
	if !marked {
		t.Error("no postmortem flight event recorded")
	}
}

// countingHooks counts the lifecycle calls a query makes and keeps what
// QueryFinished was handed.
type countingHooks struct {
	started, finished int
	err               error
	final             pipeline.ProgressSnapshot
}

func (h *countingHooks) QueryStarted(*pipeline.Progress) { h.started++ }

func (h *countingHooks) QueryFinished(p *pipeline.Progress, _ *pipeline.Report, err error) {
	h.finished++
	h.err = err
	h.final = p.Snapshot()
}

// TestPanicFinishesQuery: a panicking stage still ends its query through
// the hooks and the flight trail, so live views such as /debug/inflight
// drop it, before the panic continues to the caller.
func TestPanicFinishesQuery(t *testing.T) {
	a := buildArray("A<v:int>[i=1,100,20]", 41, 40, 15)
	b := buildArray("B<w:int>[j=1,100,20]", 42, 40, 15)
	pred := join.Predicate{{Left: join.Term{Name: "v"}, Right: join.Term{Name: "w"}}}
	c := newCluster(t, 2, a, b)
	dl, err := c.Catalog.Lookup("A")
	if err != nil {
		t.Fatal(err)
	}
	dr, err := c.Catalog.Lookup("B")
	if err != nil {
		t.Fatal(err)
	}
	hooks := &countingHooks{}
	qc := pipeline.NewQueryContext(c, dl, dr, pred, nil, pipeline.Options{Selectivity: 0.5, Hooks: hooks})
	mark := flight.Default.Stats().Recorded

	func() {
		defer func() {
			if r := recover(); r != "injected failure" {
				t.Errorf("recovered %v, want the stage's panic value", r)
			}
		}()
		pipeline.Execute(qc, []pipeline.Stage{pipeline.LogicalPlan{}, panicStage{}})
	}()

	if hooks.started != 1 || hooks.finished != 1 {
		t.Fatalf("hooks: %d started, %d finished, want 1 and 1", hooks.started, hooks.finished)
	}
	if hooks.err == nil || !strings.Contains(hooks.err.Error(), "injected failure") {
		t.Errorf("QueryFinished err = %v, want the panic", hooks.err)
	}
	if !hooks.final.Done || !hooks.final.Failed {
		t.Errorf("final progress = %+v, want done and failed", hooks.final)
	}
	var queryError bool
	for _, e := range eventsSince(mark) {
		if e.Type == flight.EvQueryError && flight.Default.LabelName(e.Args[0]) == "panic-stage" {
			queryError = true
		}
	}
	if !queryError {
		t.Error("no query-error flight event names the panicking stage")
	}
}

// TestPostmortemOnSlowQuery: a query breaching the sink's SlowQuery
// threshold ships a bundle even though it succeeded, and the bundle's
// profile section alone rebuilds the live profile.
func TestPostmortemOnSlowQuery(t *testing.T) {
	a := buildArray("A<v:int>[i=1,100,20]", 51, 40, 15)
	b := buildArray("B<w:int>[j=1,100,20]", 52, 40, 15)
	pred := join.Predicate{{Left: join.Term{Name: "v"}, Right: join.Term{Name: "w"}}}
	c := newCluster(t, 2, a, b)
	dir := t.TempDir()
	installSink(t, &flight.Postmortem{Dir: dir, SlowQuery: time.Nanosecond})

	rep, err := pipeline.Run(c, "A", "B", pred, nil, pipeline.Options{
		Selectivity: 0.5,
		QueryLabel:  "slow A join B",
	})
	if err != nil {
		t.Fatal(err)
	}
	bundles := bundleDirs(t, dir)
	if len(bundles) != 1 {
		t.Fatalf("bundles = %v, want exactly one", bundles)
	}
	meta := readMeta(t, bundles[0])
	if meta["reason"] != "slow-query" {
		t.Errorf("reason = %v", meta["reason"])
	}
	raw, err := os.ReadFile(filepath.Join(bundles[0], "profile.json"))
	if err != nil {
		t.Fatalf("bundle has no profile section: %v", err)
	}
	var offline pipeline.Profile
	if err := json.Unmarshal(raw, &offline); err != nil {
		t.Fatalf("profile.json: %v", err)
	}
	if got, want := offline.Fingerprint(), rep.Profile().Fingerprint(); got != want {
		t.Errorf("profile rebuilt from the bundle diverges:\n--- bundle ---\n%s\n--- live ---\n%s", got, want)
	}
}

// TestProfileHotUnits: the profile's hot-unit list is derived
// deterministically from the per-unit cell totals the planner assigned.
func TestProfileHotUnits(t *testing.T) {
	a := buildArray("A<v:int>[i=1,300,30]", 61, 150, 25)
	b := buildArray("B<w:int>[j=1,300,30]", 62, 140, 25)
	pred := join.Predicate{{Left: join.Term{Name: "v"}, Right: join.Term{Name: "w"}}}
	c := newCluster(t, 3, a, b)
	rep, err := pipeline.Run(c, "A", "B", pred, nil, pipeline.Options{
		Selectivity: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.UnitCells) == 0 {
		t.Fatal("Report.UnitCells not populated")
	}
	want := flight.HotUnits(rep.UnitCells)
	if !reflect.DeepEqual(rep.Profile().HotUnits, want) {
		t.Errorf("Profile.HotUnits = %+v, want %+v", rep.Profile().HotUnits, want)
	}
}
