// EXPLAIN ANALYZE: the per-query execution profile. A Profile is the
// structured, serializable digest of one query's run — per-stage wall and
// simulated timings, plan provenance (source, regret, cache outcome,
// candidate costs, the physical planner's search counters), shuffle
// transfer totals, and per-node work/skew diagnostics — a pure function
// of the Report (Report.Profile), like the metrics fold and the Chrome
// trace (FoldMetrics, WriteChrome). It is the one per-query digest: a
// k-way query has one per step. Everything except wall-clock fields is
// bit-for-bit identical at every Parallelism setting; Fingerprint masks
// the wall-clock fields so tests can assert exactly that.

package pipeline

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"shufflejoin/internal/flight"
	"shufflejoin/internal/logical"
	"shufflejoin/internal/physical"
)

// StageTiming is one pipeline stage's entry in the stage log:
// Report.Stages, Profile.Stages and ProgressSnapshot.Stages. Done is set
// once the stage has returned without error, so a running stage and the
// stage a query failed in both read false. WallSeconds is real elapsed
// time (nondeterministic); SimSeconds is the simulated-cluster seconds
// the stage contributed to the query's modeled makespan (deterministic;
// nonzero only for the align and compare stages).
type StageTiming struct {
	Stage       string  `json:"stage"`
	Done        bool    `json:"done"`
	WallSeconds float64 `json:"wall_seconds"`
	SimSeconds  float64 `json:"sim_seconds"`
}

// PlanCandidate is one logical plan the optimizer considered, with its
// join units and modeled cost breakdown (abstract per-cell units): a
// profile's candidate and an Explain row alike (Candidate). Chosen marks
// the plan a profiled query executed. A cached query carries its single
// replayed plan; every other query lists every valid plan, cheapest
// first.
type PlanCandidate struct {
	Plan        string  `json:"plan"` // AFL rendering, e.g. "mergeJoin(redim(A), redim(B))"
	Algorithm   string  `json:"algorithm"`
	Units       string  `json:"units"` // "chunks" or "hash buckets"
	NumUnits    int     `json:"num_units"`
	Cost        float64 `json:"cost"`
	AlignCost   float64 `json:"align_cost"`
	CompareCost float64 `json:"compare_cost"`
	OutputCost  float64 `json:"output_cost"`
	Chosen      bool    `json:"chosen"`
}

// Candidate is the row a logical plan renders as, unchosen.
func Candidate(lp logical.Plan) PlanCandidate {
	return PlanCandidate{
		Plan:        lp.Describe(),
		Algorithm:   lp.Algo.String(),
		Units:       lp.Units.String(),
		NumUnits:    lp.NumUnits,
		Cost:        lp.Cost,
		AlignCost:   lp.AlignCost,
		CompareCost: lp.CompareCost,
		OutputCost:  lp.OutCost,
	}
}

// ShuffleProfile summarizes the data-alignment phase: transfer and
// congestion totals from the discrete-event shuffle simulation.
type ShuffleProfile struct {
	Transfers       int     `json:"transfers"`
	CellsMoved      int64   `json:"cells_moved"`
	LockWaits       int     `json:"lock_waits"`
	SkippedSends    int     `json:"skipped_sends"`
	LockWaitSeconds float64 `json:"lock_wait_seconds"`
	MakespanSeconds float64 `json:"makespan_seconds"`
}

// NodeProfile is one simulated node's share of the query: assigned join
// units and cells, emitted output cells, and its modeled compare,
// send/receive, and lock-wait seconds.
type NodeProfile struct {
	Node            int     `json:"node"`
	Units           int     `json:"units"`
	AssignedCells   int64   `json:"assigned_cells"`
	OutputCells     int64   `json:"output_cells"`
	CompareSeconds  float64 `json:"compare_seconds"`
	SendSeconds     float64 `json:"send_seconds"`
	RecvSeconds     float64 `json:"recv_seconds"`
	LockWaitSeconds float64 `json:"lock_wait_seconds"`
}

// Profile is one query's EXPLAIN ANALYZE result. Field order is fixed,
// so the JSON rendering is stable; every field except the wall-clock
// ones (WallSeconds, PlanSeconds, TotalSeconds, Stages[].WallSeconds) is
// deterministic across Parallelism settings and is covered by
// Fingerprint.
type Profile struct {
	// Query is the label the caller attached (AQL text or experiment
	// name); empty when none was set.
	Query string `json:"query,omitempty"`

	// Plan provenance.
	Plan         string          `json:"plan"`
	Algorithm    string          `json:"algorithm"`
	Planner      string          `json:"planner"`
	PlanSource   string          `json:"plan_source"`
	PlanRegret   float64         `json:"plan_regret,omitempty"`
	CacheOutcome string          `json:"cache_outcome,omitempty"`
	Selectivity  float64         `json:"selectivity"`
	NumUnits     int             `json:"num_units"`
	Candidates   []PlanCandidate `json:"candidates,omitempty"`
	// Search is the physical planner's search effort: ILP nodes explored
	// and pruned, tasks and seed cost; Tabu rounds, moves and what-ifs.
	// Zero for a planner that does not search and for a cached plan.
	Search physical.SearchStats `json:"search"`

	// Per-stage timings, in execution order.
	Stages []StageTiming `json:"stages"`

	// Phase totals: PlanSeconds is planning wall time, MakespanSeconds is
	// the simulated align+compare makespan (the sum of the stages'
	// SimSeconds), TotalSeconds their sum as reported by the engine, and
	// WallSeconds the real end-to-end elapsed time.
	PlanSeconds     float64 `json:"plan_seconds"`
	MakespanSeconds float64 `json:"makespan_seconds"`
	TotalSeconds    float64 `json:"total_seconds"`
	WallSeconds     float64 `json:"wall_seconds"`

	// Outcome totals.
	Matches      int64 `json:"matches"`
	CellsMoved   int64 `json:"cells_moved"`
	ClampedCells int64 `json:"clamped_cells,omitempty"`

	// Memory: the data plane's per-query bound. PeakBatchBytes is the
	// high-water mark of mapped batch storage (deterministic),
	// InternedStrings the distinct strings in the query's intern
	// dictionary, and MemoryOverflowBytes
	// how far the peak exceeded the memory budget (counted mode).
	PeakBatchBytes      int64 `json:"peak_batch_bytes"`
	InternedStrings     int64 `json:"interned_strings,omitempty"`
	MemoryOverflowBytes int64 `json:"memory_overflow_bytes,omitempty"`

	// Skew diagnostics: the compare phase's straggler ratio (max/mean)
	// and the straggler node (-1 when no compare work exists).
	Skew          float64 `json:"skew"`
	StragglerNode int     `json:"straggler_node"`
	// HotUnits lists join units whose cell count dominates the mean
	// (flight.HotUnits over Report.UnitCells with the default
	// thresholds). Deterministic, so it is covered by Fingerprint.
	HotUnits []flight.HotUnit `json:"hot_units,omitempty"`

	Shuffle ShuffleProfile `json:"shuffle"`
	Nodes   []NodeProfile  `json:"nodes"`
}

// Profile renders the query's EXPLAIN ANALYZE digest. It reads nothing
// but the Report, so a failed query's report profiles as far as the query
// got. Each call builds a new Profile; call it once the query has
// finished.
func (rep *Report) Profile() *Profile { return buildProfile(rep) }

func buildProfile(rep *Report) *Profile {
	p := &Profile{
		Query:               rep.Query,
		Planner:             rep.Physical.Planner,
		PlanSource:          rep.PlanSource,
		PlanRegret:          rep.PlanRegret,
		CacheOutcome:        rep.CacheOutcome,
		Selectivity:         rep.Selectivity,
		NumUnits:            rep.Logical.NumUnits,
		Search:              rep.Physical.Search,
		Stages:              append([]StageTiming(nil), rep.Stages...),
		PlanSeconds:         rep.PlanTime,
		TotalSeconds:        rep.Total,
		WallSeconds:         rep.WallTime.Seconds(),
		Matches:             rep.Matches,
		CellsMoved:          rep.CellsMoved,
		ClampedCells:        rep.ClampedCells,
		PeakBatchBytes:      rep.PeakBatchBytes,
		InternedStrings:     rep.InternedStrings,
		MemoryOverflowBytes: rep.MemoryOverflowBytes,
		Skew:                rep.Skew,
		StragglerNode:       rep.StragglerNode,
		HotUnits:            flight.HotUnits(rep.UnitCells),
		Shuffle: ShuffleProfile{
			Transfers:       len(rep.Align.Timeline),
			CellsMoved:      rep.CellsMoved,
			LockWaits:       rep.Align.LockWaits,
			SkippedSends:    rep.Align.SkippedSends,
			LockWaitSeconds: rep.Align.LockWaitTime,
			MakespanSeconds: rep.Align.Makespan,
		},
	}
	if rep.Logical.JS != nil { // unset until LogicalPlan has chosen
		p.Plan = rep.Logical.Describe()
		p.Algorithm = rep.Logical.Algo.String()
	}
	for _, st := range rep.Stages {
		p.MakespanSeconds += st.SimSeconds
	}
	for _, lp := range rep.Candidates {
		c := Candidate(lp)
		c.Chosen = c.Plan == p.Plan && lp.Algo == rep.Logical.Algo
		p.Candidates = append(p.Candidates, c)
	}
	for node, nl := range rep.Nodes {
		np := NodeProfile{Node: node, Units: nl.Units, AssignedCells: nl.AssignedCells, OutputCells: nl.OutputCells}
		if node < len(rep.NodeCompareTime) {
			np.CompareSeconds = rep.NodeCompareTime[node]
		}
		if node < len(rep.Align.SendBusy) {
			np.SendSeconds = rep.Align.SendBusy[node]
			np.RecvSeconds = rep.Align.RecvBusy[node]
			np.LockWaitSeconds = rep.Align.RecvLockWait[node]
		}
		p.Nodes = append(p.Nodes, np)
	}
	return p
}

// WriteJSON emits the profile as indented JSON with a fixed field order
// (Go struct order), so two profiles of the same deterministic run
// render byte-identically apart from wall-clock fields.
func (p *Profile) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}

// String renders the profile as a human-readable EXPLAIN ANALYZE tree.
func (p *Profile) String() string {
	var b strings.Builder
	if p.Query != "" {
		fmt.Fprintf(&b, "EXPLAIN ANALYZE  %s\n", p.Query)
	} else {
		b.WriteString("EXPLAIN ANALYZE\n")
	}
	fmt.Fprintf(&b, "plan: %s  [%s join · %s planner", p.Plan, p.Algorithm, p.Planner)
	if p.PlanSource != "" {
		fmt.Fprintf(&b, " · source=%s", p.PlanSource)
	}
	if p.PlanRegret > 0 {
		fmt.Fprintf(&b, " · regret=%.3g", p.PlanRegret)
	}
	if p.CacheOutcome != "" {
		fmt.Fprintf(&b, " · cache=%s", p.CacheOutcome)
	}
	b.WriteString("]\n")
	fmt.Fprintf(&b, "selectivity %.4g · %d join units · %d matches · %d cells moved",
		p.Selectivity, p.NumUnits, p.Matches, p.CellsMoved)
	if p.ClampedCells > 0 {
		fmt.Fprintf(&b, " · %d clamped", p.ClampedCells)
	}
	b.WriteString("\n")
	if s := p.Search; s != (physical.SearchStats{}) {
		fmt.Fprintf(&b, "├─ planner search: ilp %d nodes explored · %d pruned · %d tasks · seed cost %.4g; tabu %d rounds · %d moves · %d what-ifs\n",
			s.ILPNodes, s.ILPPruned, s.ILPTasks, s.SeedCost, s.TabuRounds, s.TabuMoves, s.TabuWhatIfs)
	}
	fmt.Fprintf(&b, "├─ stages %18s %14s\n", "wall", "simulated")
	for _, st := range p.Stages {
		sim := fmt.Sprintf("%.4fs", st.SimSeconds)
		if st.SimSeconds == 0 {
			sim = "—"
		}
		fmt.Fprintf(&b, "│    %-13s %10.2fms %14s\n", st.Stage, st.WallSeconds*1000, sim)
	}
	fmt.Fprintf(&b, "│    %-13s %10.2fms %13.4fs   (plan %.4fs + makespan %.4fs = total %.4fs)\n",
		"total", p.WallSeconds*1000, p.MakespanSeconds, p.PlanSeconds, p.MakespanSeconds, p.TotalSeconds)
	fmt.Fprintf(&b, "├─ shuffle: %d transfers · %d cells · %d lock waits (%.4fs) · %d skipped sends · makespan %.4fs\n",
		p.Shuffle.Transfers, p.Shuffle.CellsMoved, p.Shuffle.LockWaits,
		p.Shuffle.LockWaitSeconds, p.Shuffle.SkippedSends, p.Shuffle.MakespanSeconds)
	if p.PeakBatchBytes > 0 {
		fmt.Fprintf(&b, "├─ memory: %d peak batch bytes · %d interned strings", p.PeakBatchBytes, p.InternedStrings)
		if p.MemoryOverflowBytes > 0 {
			fmt.Fprintf(&b, " · %d bytes over budget", p.MemoryOverflowBytes)
		}
		b.WriteString("\n")
	}
	if len(p.HotUnits) > 0 {
		b.WriteString("├─ hot units:")
		for _, hu := range p.HotUnits {
			fmt.Fprintf(&b, " unit %d (%d cells, %.1fx mean)", hu.Unit, hu.Cells, float64(hu.Cells)/hu.Mean)
		}
		b.WriteString("\n")
	}
	if p.StragglerNode >= 0 {
		fmt.Fprintf(&b, "├─ nodes (compare skew %.3f · straggler node %d)\n", p.Skew, p.StragglerNode)
	} else {
		b.WriteString("├─ nodes (no compare work)\n")
	}
	fmt.Fprintf(&b, "│    %-5s %6s %15s %13s %11s %9s %9s %12s\n",
		"node", "units", "assigned_cells", "output_cells", "compare_s", "send_s", "recv_s", "lock_wait_s")
	for _, n := range p.Nodes {
		marker := ""
		if n.Node == p.StragglerNode {
			marker = "  <- straggler"
		}
		fmt.Fprintf(&b, "│    %-5d %6d %15d %13d %11.4f %9.4f %9.4f %12.4f%s\n",
			n.Node, n.Units, n.AssignedCells, n.OutputCells,
			n.CompareSeconds, n.SendSeconds, n.RecvSeconds, n.LockWaitSeconds, marker)
	}
	fmt.Fprintf(&b, "└─ candidates (%d plan(s), cheapest first)\n", len(p.Candidates))
	for _, c := range p.Candidates {
		mark := " "
		if c.Chosen {
			mark = "*"
		}
		fmt.Fprintf(&b, "   %s %-50s %-10s units=%-6d cost=%.4g (align %.4g · compare %.4g · output %.4g)\n",
			mark, c.Plan, c.Algorithm, c.NumUnits, c.Cost, c.AlignCost, c.CompareCost, c.OutputCost)
	}
	return b.String()
}

// Fingerprint renders every deterministic field of the profile in a
// canonical text form, with wall-clock quantities masked and simulated
// seconds printed exactly (%.17g). Two profiles of the same query are
// required to fingerprint identically at every Parallelism setting.
func (p *Profile) Fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "query=%q plan=%q algo=%s planner=%q source=%s regret=%.17g cache=%s sel=%.17g units=%d\n",
		p.Query, p.Plan, p.Algorithm, p.Planner, p.PlanSource, p.PlanRegret, p.CacheOutcome, p.Selectivity, p.NumUnits)
	for _, c := range p.Candidates {
		fmt.Fprintf(&b, "candidate plan=%q algo=%s units=%d cost=%.17g align=%.17g compare=%.17g out=%.17g chosen=%v\n",
			c.Plan, c.Algorithm, c.NumUnits, c.Cost, c.AlignCost, c.CompareCost, c.OutputCost, c.Chosen)
	}
	s := &p.Search
	fmt.Fprintf(&b, "search ilp_nodes=%d ilp_pruned=%d ilp_tasks=%d seed_cost=%.17g tabu_rounds=%d tabu_moves=%d tabu_whatifs=%d\n",
		s.ILPNodes, s.ILPPruned, s.ILPTasks, s.SeedCost, s.TabuRounds, s.TabuMoves, s.TabuWhatIfs)
	for _, st := range p.Stages {
		fmt.Fprintf(&b, "stage %s wall=[masked] sim=%.17g\n", st.Stage, st.SimSeconds)
	}
	fmt.Fprintf(&b, "makespan=%.17g matches=%d moved=%d clamped=%d skew=%.17g straggler=%d\n",
		p.MakespanSeconds, p.Matches, p.CellsMoved, p.ClampedCells, p.Skew, p.StragglerNode)
	for _, hu := range p.HotUnits {
		fmt.Fprintf(&b, "hotunit %d cells=%d mean=%.17g\n", hu.Unit, hu.Cells, hu.Mean)
	}
	fmt.Fprintf(&b, "memory peak=%d interned=%d overflow=%d\n",
		p.PeakBatchBytes, p.InternedStrings, p.MemoryOverflowBytes)
	fmt.Fprintf(&b, "shuffle transfers=%d cells=%d lock_waits=%d skipped=%d lock_wait_s=%.17g makespan=%.17g\n",
		p.Shuffle.Transfers, p.Shuffle.CellsMoved, p.Shuffle.LockWaits,
		p.Shuffle.SkippedSends, p.Shuffle.LockWaitSeconds, p.Shuffle.MakespanSeconds)
	for _, n := range p.Nodes {
		fmt.Fprintf(&b, "node %d units=%d assigned=%d output=%d compare=%.17g send=%.17g recv=%.17g lock=%.17g\n",
			n.Node, n.Units, n.AssignedCells, n.OutputCells,
			n.CompareSeconds, n.SendSeconds, n.RecvSeconds, n.LockWaitSeconds)
	}
	return b.String()
}
