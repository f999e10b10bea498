package pipeline_test

import (
	"errors"
	"go/parser"
	"go/token"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"shufflejoin/internal/join"
	"shufflejoin/internal/logical"
	"shufflejoin/internal/obs"
	"shufflejoin/internal/pipeline"
)

// failingCompare runs the real Compare stage (so the dispatched units are
// waited for) and then fails under its name.
type failingCompare struct{ pipeline.Compare }

func (f failingCompare) Run(qc *pipeline.QueryContext) error {
	if err := f.Compare.Run(qc); err != nil {
		return err
	}
	return errors.New("injected compare failure")
}

// TestFailedQueryKeepsTraceAndWall: the trace is folded from the Report
// on error exits too, so a query that fails in Compare still shows every
// stage it completed — and its Report says how long it ran.
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
	tr := obs.New("failed")
	qc := pipeline.NewQueryContext(c, dl, dr, pred, nil, pipeline.Options{
		Logical: logical.PlanOptions{Selectivity: 0.5},
		Trace:   tr,
	})
	stages := pipeline.DefaultStages()
	stages[4] = failingCompare{}
	if err := pipeline.Execute(qc, stages); err == nil {
		t.Fatal("injected compare failure did not fail the query")
	}

	var names []string
	for _, sp := range tr.Root().Children {
		names = append(names, sp.Name)
	}
	if got, want := strings.Join(names, " "), "plan.logical map.slices plan.physical align"; got != want {
		t.Errorf("failed query's spans = %q, want %q", got, want)
	}
	snap := tr.Metrics().Snapshot()
	if snap["pipeline.query_errors"] != 1 || snap["align.transfers"] == 0 {
		t.Errorf("failed query's metrics = %v", snap)
	}
	if _, ok := snap["compare.matches"]; ok {
		t.Error("the stage that failed contributed metrics")
	}

	rep := qc.Report
	if rep.WallTime <= 0 {
		t.Errorf("failed query's WallTime = %v", rep.WallTime)
	}
	if n := len(rep.Stages); n != 5 || rep.Stages[n-1].Done || !rep.Stages[n-2].Done {
		t.Errorf("stage log = %+v, want five entries with only the last not done", rep.Stages)
	}
	if p := rep.Profile(); p.WallSeconds <= 0 || len(p.Stages) != 5 || len(p.Nodes) != 3 {
		t.Errorf("failed query's profile = %+v", p)
	}
}

// TestStagesDoNotImportObs keeps telemetry a fold of the Report: the
// stages, the compare runner, the projector and the planners beneath
// them must not be able to write a span or a metric; the stages must not
// record flight events either, since the stage log records those from
// the Report; and the network simulator, which the stages drive, stays a
// leaf that imports nothing of the engine.
func TestStagesDoNotImportObs(t *testing.T) {
	stages := []string{"stages.go", "overlap.go", "project.go"}
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
		Logical:    logical.PlanOptions{Selectivity: 0.5},
		Hooks:      h,
		QueryLabel: "polled",
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
