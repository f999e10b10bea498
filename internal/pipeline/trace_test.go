package pipeline_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/parser"
	"go/token"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"shufflejoin/internal/array"
	"shufflejoin/internal/join"
	"shufflejoin/internal/logical"
	"shufflejoin/internal/obs"
	"shufflejoin/internal/pipeline"
	"shufflejoin/internal/plancache"
	"shufflejoin/internal/simnet"
)

// failingCompare runs the real Compare stage (so the Report holds its
// results) and then fails under its name.
type failingCompare struct{ pipeline.Compare }

func (f failingCompare) Run(qc *pipeline.QueryContext) error {
	if err := f.Compare.Run(qc); err != nil {
		return err
	}
	return errors.New("injected compare failure")
}

// TestFailedQueryKeepsTraceAndWall: the trace and metrics render from
// the Report on error exits too, so a query that fails in Compare still
// shows every stage it completed — and its Report says how long it ran.
func TestFailedQueryKeepsTraceAndWall(t *testing.T) {
	a := buildArray("A<v:int>[i=1,200,20]", 81, 120, 25)
	b := buildArray("B<w:int>[j=1,200,20]", 82, 110, 25)
	pred := join.Predicate{{Left: join.Term{Name: "v"}, Right: join.Term{Name: "w"}}}
	c := newCluster(t, 3, a, b)
	dl, err := c.Catalog.Lookup("A")
	if err != nil {
		t.Fatal(err)
	}
	dr, err := c.Catalog.Lookup("B")
	if err != nil {
		t.Fatal(err)
	}
	qc := pipeline.NewQueryContext(c, dl, dr, pred, nil, pipeline.Options{
		Selectivity: 0.5,
	})
	stages := pipeline.DefaultStages()
	stages[4] = failingCompare{}
	if err := pipeline.Execute(qc, stages); err == nil {
		t.Fatal("injected compare failure did not fail the query")
	}

	var chrome bytes.Buffer
	if err := pipeline.WriteChrome(&chrome, "failed", qc.Report); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name, Ph string
			Pid      int
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Pid == 0 {
			names = append(names, ev.Name)
		}
	}
	if got, want := strings.Join(names, " "), "failed plan.logical map.slices plan.physical align"; got != want {
		t.Errorf("failed query's coordinator spans = %q, want %q", got, want)
	}
	reg := obs.NewRegistry()
	pipeline.FoldMetrics(reg, qc.Report, true)
	snap := reg.Snapshot()
	if snap["pipeline.query_errors"] != 1 || snap["align.transfers"] == 0 {
		t.Errorf("failed query's metrics = %v", snap)
	}
	if _, ok := snap["compare.matches"]; ok {
		t.Error("the stage that failed contributed metrics")
	}

	rep := qc.Report
	if rep.WallTime <= 0 || rep.Start.IsZero() {
		t.Errorf("failed query's WallTime = %v, Start = %v", rep.WallTime, rep.Start)
	}
	if n := len(rep.Stages); n != 5 || rep.Stages[n-1].Done || !rep.Stages[n-2].Done {
		t.Errorf("stage log = %+v, want five entries with only the last not done", rep.Stages)
	}
	if p := rep.Profile(); p.WallSeconds <= 0 || len(p.Stages) != 5 || len(p.Nodes) != 3 {
		t.Errorf("failed query's profile = %+v", p)
	}
}

// TestStagesDoNotImportObs keeps telemetry a render of the Report: the
// stages, the per-unit compare, the projector and the planners beneath
// them must not be able to write a metric; the stages must not
// record flight events either, since the stage log records those from
// the Report; and the network simulator, which the stages drive, stays a
// leaf that imports nothing of the engine.
func TestStagesDoNotImportObs(t *testing.T) {
	stages := []string{"stages.go", "compare.go", "project.go"}
	forbid := func(files []string, bad func(path string) bool) {
		t.Helper()
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			parsed, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range parsed.Imports {
				if path, _ := strconv.Unquote(imp.Path.Value); bad(path) {
					t.Errorf("%s imports %s", f, path)
				}
			}
		}
	}
	is := func(want string) func(string) bool { return func(path string) bool { return path == want } }
	forbid(append(stages, goFiles(t, "../physical", "../ilp")...), is("shufflejoin/internal/obs"))
	forbid(stages, is("shufflejoin/internal/flight"))
	forbid(goFiles(t, "../simnet"), func(path string) bool { return strings.HasPrefix(path, "shufflejoin/internal/") })
}

// goFiles lists the Go files of the given package directories.
func goFiles(t *testing.T, dirs ...string) []string {
	t.Helper()
	var files []string
	for _, dir := range dirs {
		pkg, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(pkg) == 0 {
			t.Fatalf("no Go files in %s (err %v)", dir, err)
		}
		files = append(files, pkg...)
	}
	return files
}

// pollingHooks snapshots a query's Progress from another goroutine for as
// long as the query runs.
type pollingHooks struct {
	stop  chan struct{}
	done  chan struct{}
	snaps []pipeline.ProgressSnapshot // written by the poller, read after done
	final pipeline.ProgressSnapshot
}

func (h *pollingHooks) QueryStarted(p *pipeline.Progress) {
	go func() {
		defer close(h.done)
		for {
			select {
			case <-h.stop:
				return
			default:
				if s := p.Snapshot(); len(h.snaps) == 0 || len(s.Stages) != len(h.snaps[len(h.snaps)-1].Stages) || s.CurrentStage != h.snaps[len(h.snaps)-1].CurrentStage {
					h.snaps = append(h.snaps, s) // keep one per state of the log
				}
				runtime.Gosched()
			}
		}
	}()
}

func (h *pollingHooks) QueryFinished(p *pipeline.Progress, _ *pipeline.Report, _ error) {
	close(h.stop)
	<-h.done
	h.final = p.Snapshot()
}

// TestProgressFollowsStageLog: Snapshot, taken concurrently with the
// running query, reads the same stage log the Report ends up holding —
// stages only ever appear in order and close, and at most the last one
// is open.
func TestProgressFollowsStageLog(t *testing.T) {
	a := buildArray("A<v:int>[i=1,2000,100]", 83, 1500, 200)
	b := buildArray("B<w:int>[j=1,2000,100]", 84, 1500, 200)
	pred := join.Predicate{{Left: join.Term{Name: "v"}, Right: join.Term{Name: "w"}}}
	c := newCluster(t, 4, a, b)
	h := &pollingHooks{stop: make(chan struct{}), done: make(chan struct{})}
	rep, err := pipeline.Run(c, "A", "B", pred, nil, pipeline.Options{
		Selectivity: 0.5,
		Hooks:       h,
		QueryLabel:  "polled",
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range append(h.snaps, h.final) {
		if s.Query != "polled" || len(s.Stages) > len(rep.Stages) {
			t.Fatalf("snapshot %+v does not belong to the query's stage log %+v", s, rep.Stages)
		}
		for i, st := range s.Stages {
			open := !st.Done
			if st.Stage != rep.Stages[i].Stage || (open && i != len(s.Stages)-1) {
				t.Fatalf("snapshot stages %+v, stage log %+v", s.Stages, rep.Stages)
			}
			if open && s.CurrentStage != st.Stage {
				t.Fatalf("open stage %q but current_stage %q", st.Stage, s.CurrentStage)
			}
		}
	}
	if !h.final.Done || h.final.Failed || h.final.CurrentStage != "" || len(h.final.Stages) != len(rep.Stages) {
		t.Errorf("final snapshot = %+v", h.final)
	}
	for i, st := range h.final.Stages {
		if st != rep.Stages[i] {
			t.Errorf("final snapshot stage %d = %+v, report has %+v", i, st, rep.Stages[i])
		}
	}
}

// progressHooks keeps the query's live Progress tracker.
type progressHooks struct{ p *pipeline.Progress }

func (h *progressHooks) QueryStarted(p *pipeline.Progress) { h.p = p }

func (*progressHooks) QueryFinished(*pipeline.Progress, *pipeline.Report, error) {}

// TestMatchesProjectedInCompareStage pins the stage attribution of cell
// comparison: every match is projected while the stage log's open stage
// is compare, so the compare stage's wall time holds all of the
// comparison and the align stage's none of it, at every Parallelism.
func TestMatchesProjectedInCompareStage(t *testing.T) {
	a := buildArray("A<v:int>[i=1,300,30]", 21, 150, 25)
	b := buildArray("B<w:int>[j=1,300,30]", 22, 140, 25)
	pred := join.Predicate{{Left: join.Term{Name: "v"}, Right: join.Term{Name: "w"}}}
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("par=%d", par), func(t *testing.T) {
			h := &progressHooks{}
			var mu sync.Mutex
			seen := map[string]int{}
			rep, err := pipeline.Run(newCluster(t, 4, a.Clone(), b.Clone()), "A", "B", pred, nil, pipeline.Options{
				Selectivity: 0.5,
				Parallelism: par,
				Hooks:       h,
				ProjectFactory: func(js *logical.JoinSchema) (func(l, r *join.Tuple) []array.Value, error) {
					var accs []func(l, r *join.Tuple) array.Value
					for _, at := range js.Pred.Out.Attrs {
						acc, err := pipeline.Accessor(js, "", at.Name)
						if err != nil {
							return nil, err
						}
						accs = append(accs, acc)
					}
					return func(l, r *join.Tuple) []array.Value {
						stage := h.p.Snapshot().CurrentStage
						mu.Lock()
						seen[stage]++
						mu.Unlock()
						attrs := make([]array.Value, len(accs))
						for i, acc := range accs {
							attrs[i] = acc(l, r)
						}
						return attrs
					}, nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Matches == 0 || len(seen) != 1 || seen["compare"] != int(rep.Matches) {
				t.Errorf("%d matches projected per stage %v, want all in compare", rep.Matches, seen)
			}
		})
	}
}

// rendered is a query's metrics JSON and Chrome trace rendered from a
// copy of its Report with the wall-clock fields zeroed: the bytes the
// determinism tests compare.
func rendered(t *testing.T, rep *pipeline.Report) string {
	t.Helper()
	cp := *rep
	cp.Start, cp.PlanTime = time.Time{}, 0
	cp.Stages = append([]pipeline.StageTiming(nil), rep.Stages...)
	for i := range cp.Stages {
		cp.Stages[i].WallSeconds = 0
	}
	reg := obs.NewRegistry()
	pipeline.FoldMetrics(reg, &cp, false)
	var b bytes.Buffer
	if err := reg.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if err := pipeline.WriteChrome(&b, "query", &cp); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestChromeTraceSchema validates the export against the trace-event
// format — required keys, known phase types, paired flow events, and
// per-node process metadata, the contract Perfetto needs to load it —
// on a Report with two transfers and three nodes.
func TestChromeTraceSchema(t *testing.T) {
	rep := &pipeline.Report{
		Stages: []pipeline.StageTiming{
			{Stage: pipeline.Align{}.Name(), Done: true},
			{Stage: pipeline.Compare{}.Name(), Done: true},
		},
		CompareTime:     1.5,
		NodeCompareTime: []float64{0, 1, 2},
		Nodes:           make([]pipeline.NodeLoad, 3),
	}
	rep.Align.Makespan = 2
	for i, x := range []struct {
		from, to int
		start    float64
	}{{0, 1, 0}, {2, 1, 0.5}} {
		rep.Align.Timeline = append(rep.Align.Timeline, simnet.Event{
			Transfer: simnet.Transfer{From: x.from, To: x.to, Cells: 100, Tag: i},
			Start:    x.start, End: x.start + 0.5,
		})
	}
	var buf bytes.Buffer
	if err := pipeline.WriteChrome(&buf, "query", rep); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var file struct {
		TraceEvents     []map[string]any `json:"traceEvents"`
		DisplayTimeUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	if file.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", file.DisplayTimeUnit)
	}

	flowStarts := map[float64]bool{}
	flowEnds := map[float64]bool{}
	processNames := map[float64]string{}
	valid := map[string]bool{"X": true, "M": true, "s": true, "f": true}
	for i, ev := range file.TraceEvents {
		for _, key := range []string{"name", "ph", "pid", "tid", "ts"} {
			if _, ok := ev[key]; !ok {
				t.Fatalf("event %d missing %q: %v", i, key, ev)
			}
		}
		ph := ev["ph"].(string)
		if !valid[ph] {
			t.Fatalf("event %d has unknown phase %q", i, ph)
		}
		switch ph {
		case "X":
			if dur, ok := ev["dur"].(float64); !ok || dur < 0 {
				t.Fatalf("complete event %d lacks non-negative dur: %v", i, ev)
			}
		case "s":
			flowStarts[ev["id"].(float64)] = true
		case "f":
			flowEnds[ev["id"].(float64)] = true
			if ev["bp"] != "e" {
				t.Fatalf("flow end %d must bind to enclosing slice (bp=e): %v", i, ev)
			}
		case "M":
			if ev["name"] == "process_name" {
				args := ev["args"].(map[string]any)
				processNames[ev["pid"].(float64)] = args["name"].(string)
			}
		}
	}

	if len(flowStarts) != 2 || len(flowEnds) != 2 {
		t.Fatalf("want 2 transfer flows, got %d starts / %d ends", len(flowStarts), len(flowEnds))
	}
	for id := range flowStarts {
		if !flowEnds[id] {
			t.Fatalf("flow %v has no end event", id)
		}
	}
	// One process per simulated node plus the wall-clock coordinator.
	if processNames[0] == "" {
		t.Error("pid 0 (coordinator) has no process_name metadata")
	}
	for _, pid := range []float64{1, 2, 3} {
		if processNames[pid] == "" {
			t.Errorf("pid %v (simulated node) has no process_name metadata", pid)
		}
	}
}

// foldAllocsCeiling bounds the allocations of folding one query's
// metrics into a warm registry: what the facade's always-on recordQuery
// adds to every query: the per-node metric names, six allocations for
// each of four nodes.
const foldAllocsCeiling = 24 + raceAllocs

// TestFoldMetricsAllocs is the gate on that cost, measured on a query
// shaped like the serve_mix benchmark's: four nodes, a dimension join,
// its plan replayed from the plan cache.
func TestFoldMetricsAllocs(t *testing.T) {
	a := buildArray("A<v:int>[i=1,4000,250]", 91, 1200, 50)
	b := buildArray("B<w:int>[i=1,4000,250]", 92, 1100, 50)
	pred := join.Predicate{{Left: join.Term{Name: "i"}, Right: join.Term{Name: "i"}}}
	c := newCluster(t, 4, a, b)
	cache := plancache.New()
	var rep *pipeline.Report
	for i := 0; i < 2; i++ {
		var err error
		if rep, err = pipeline.Run(c, "A", "B", pred, nil, pipeline.Options{Cache: cache, Parallelism: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if rep.CacheOutcome != "hit" || len(rep.Nodes) != 4 {
		t.Fatalf("cache outcome %q with %d nodes, want a hit on 4", rep.CacheOutcome, len(rep.Nodes))
	}
	reg := obs.NewRegistry()
	pipeline.FoldMetrics(reg, rep, false) // register every metric once
	allocs := testing.AllocsPerRun(100, func() { pipeline.FoldMetrics(reg, rep, false) })
	t.Logf("FoldMetrics: %.0f allocs into a warm registry", allocs)
	if allocs > foldAllocsCeiling {
		t.Errorf("FoldMetrics allocates %.0f times per query, ceiling %d", allocs, foldAllocsCeiling)
	}
}
