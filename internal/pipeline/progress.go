package pipeline

import (
	"sync"
	"time"

	"shufflejoin/internal/flight"
)

// QueryHooks observes the lifecycle of queries executed through the
// pipeline. Set on Options.Hooks, a hooks implementation receives each
// query's live Progress tracker when execution starts and the finished
// Report when it ends. The obshttp Hub implements this interface to back
// /debug/inflight and the /debug/queries log; custom schedulers can
// implement it to meter admission.
//
// Both methods are called from the query's orchestration goroutine, so a
// hooks implementation shared across concurrent queries must be
// internally synchronized.
type QueryHooks interface {
	// QueryStarted delivers the query's Progress tracker before the first
	// stage runs. The tracker is live: Snapshot may be called from any
	// goroutine while the query executes.
	QueryStarted(p *Progress)
	// QueryFinished delivers the final report — as far as the query got,
	// on error — after the last stage or the failing one returns.
	QueryFinished(p *Progress, rep *Report, err error)
}

// Progress is the live, concurrently readable view of one in-flight
// query's stage log: Snapshot, from an HTTP handler or a scheduler,
// copies the Report.Stages the orchestration goroutine is appending to.
type Progress struct {
	// Label identifies the query (the AQL text or an experiment label);
	// set from Options.QueryLabel.
	Label string
	// Start is when execution began (wall clock).
	Start time.Time

	mu     sync.Mutex // held by the stage log while it writes rep.Stages
	rep    *Report    // nil for a tracker built outside Execute
	done   bool
	failed bool
}

// ProgressSnapshot is a point-in-time copy of a Progress, safe to retain
// and serialize.
type ProgressSnapshot struct {
	Query          string        `json:"query"`
	Start          time.Time     `json:"start"`
	ElapsedSeconds float64       `json:"elapsed_seconds"`
	Done           bool          `json:"done"`
	Failed         bool          `json:"failed"`
	CurrentStage   string        `json:"current_stage,omitempty"`
	Stages         []StageTiming `json:"stages"`
}

// beginStage and endStage are the stage log: the one pair of calls
// Execute makes around every stage. Between them they append the stage's
// StageTiming to Report.Stages — under the Progress lock, for Snapshot's
// sake — and record the stage's boundaries in the flight ring:
// stage-start, and stage-finish with the stage's wall and simulated
// time. What the stage wrote into the Report stays there; the profile
// renders it.
func (qc *QueryContext) beginStage(name string) {
	rep := qc.Report
	qc.stageStart = time.Now()
	qc.alignBefore, qc.compareBefore = rep.AlignTime, rep.CompareTime
	qc.prog.mu.Lock()
	rep.Stages = append(rep.Stages, StageTiming{Stage: name})
	qc.prog.mu.Unlock()
	qc.fr.Record(flight.EvStageStart, qc.qid, qc.fr.Label(name), 0, 0, 0)
}

func (qc *QueryContext) endStage(err error) {
	rep := qc.Report
	wall := time.Since(qc.stageStart)
	st := &rep.Stages[len(rep.Stages)-1]
	qc.prog.mu.Lock()
	st.WallSeconds = wall.Seconds()
	st.SimSeconds = (rep.AlignTime - qc.alignBefore) + (rep.CompareTime - qc.compareBefore)
	st.Done = err == nil
	qc.prog.mu.Unlock()
	qc.fr.Record(flight.EvStageFinish, qc.qid, qc.fr.Label(st.Stage), int64(wall), flight.F(st.SimSeconds), 0)
}

// finish marks the query complete.
func (p *Progress) finish(failed bool) {
	p.mu.Lock()
	p.done = true
	p.failed = failed
	p.mu.Unlock()
}

// Snapshot returns a consistent copy of the tracker's current state.
func (p *Progress) Snapshot() ProgressSnapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := ProgressSnapshot{
		Query:          p.Label,
		Start:          p.Start,
		ElapsedSeconds: time.Since(p.Start).Seconds(),
		Done:           p.done,
		Failed:         p.failed,
	}
	if p.rep != nil {
		s.Stages = append(s.Stages, p.rep.Stages...)
	}
	if n := len(s.Stages); n > 0 && !p.done && !s.Stages[n-1].Done {
		s.CurrentStage = s.Stages[n-1].Stage
	}
	return s
}
