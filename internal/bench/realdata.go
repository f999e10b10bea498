package bench

import (
	"fmt"
	"io"
	"time"

	"shufflejoin/internal/array"
	"shufflejoin/internal/cluster"
	"shufflejoin/internal/join"
	"shufflejoin/internal/pipeline"
	"shufflejoin/internal/workload"
)

// RealConfig parameterizes the Section 6.3 real-world-analogue
// experiments: AIS-like ship tracks joined with MODIS-like satellite
// imagery over 4°×4° geographic chunks.
type RealConfig struct {
	AISCells       int64 // default 110k (110 GB scaled 1e-6)
	MODISCells     int64 // default 170k (170 GB scaled 1e-6)
	Seed           int64
	ILPBudget      time.Duration
	ILPMaxExplored int64 // deterministic node budget (see Config)
	Workers        int   // ILP planner parallelism (see Config)
	// Hooks, when set, observes every query the experiment executes:
	// expdriver's collector, which folds the finished Reports into its
	// metrics, keeps them for -trace and feeds the obshttp Hub.
	Hooks pipeline.QueryHooks
}

// realNodes is the cluster size of the paper's real-data experiments.
const realNodes = 4

func (c RealConfig) withDefaults() RealConfig {
	if c.AISCells == 0 {
		c.AISCells = 110_000
	}
	if c.MODISCells == 0 {
		c.MODISCells = 170_000
	}
	if c.ILPBudget == 0 {
		c.ILPBudget = 2 * time.Second
	}
	return c
}

func (c RealConfig) benchConfig() Config {
	return Config{
		Nodes:          realNodes,
		ILPBudget:      c.ILPBudget,
		ILPMaxExplored: c.ILPMaxExplored,
		Workers:        c.Workers,
	}.withDefaults()
}

// RealMeasurement is one bar of Figure 9 (or the adversarial companion):
// a full shuffle-join execution on the real-data analogue.
type RealMeasurement struct {
	Planner    string
	PlanSec    float64
	AlignSec   float64
	CompSec    float64
	TotalSec   float64
	Matches    int64
	CellsMoved int64
}

// Fig9 reproduces the beneficial-skew experiment of Section 6.3.1: the
// MODIS band joined with AIS broadcasts on the geospatial dimensions
// alone. Expected shape: the shuffle join planners beat the baseline by
// ≈2.5× end-to-end, with data alignment cut by an order of magnitude.
func Fig9(cfg RealConfig) ([]RealMeasurement, error) {
	cfg = cfg.withDefaults()
	band := workload.MODISLike("Band1", workload.GeoConfig{Cells: cfg.MODISCells, Seed: cfg.Seed + 1})
	ships := workload.AISLike("Broadcast", workload.GeoConfig{Cells: cfg.AISCells, Seed: cfg.Seed + 2})
	// The Section 6.3.1 query:
	//   SELECT Band1.reflectance, Broadcast.ship_id
	//   FROM Band1, Broadcast
	//   WHERE Band1.longitude = Broadcast.longitude
	//     AND Band1.latitude  = Broadcast.latitude;
	pred := join.Predicate{
		{Left: join.Term{Name: "longitude"}, Right: join.Term{Name: "longitude"}},
		{Left: join.Term{Name: "latitude"}, Right: join.Term{Name: "latitude"}},
	}
	out := &array.Schema{
		Name: "EnvImpact",
		Dims: []array.Dimension{
			{Name: "longitude", Start: 1, End: 3600, ChunkInterval: 40},
			{Name: "latitude", Start: 1, End: 1800, ChunkInterval: 40},
		},
		Attrs: []array.Attribute{
			{Name: "reflectance", Type: array.TypeFloat64},
			{Name: "ship_id", Type: array.TypeInt64},
		},
	}
	return runReal(cfg, band, ships, pred, out)
}

// Adversarial reproduces the Section 6.3.2 experiment: two MODIS bands —
// near-identical chunk sizes, so dense regions line up — joined on all
// three dimensions (the NDVI query's join structure). Expected shape: all
// planners comparable; the searching planners pay planning overhead
// without finding better plans.
func Adversarial(cfg RealConfig) ([]RealMeasurement, error) {
	cfg = cfg.withDefaults()
	band1 := workload.MODISLike("Band1", workload.GeoConfig{Cells: cfg.MODISCells, Seed: cfg.Seed + 1})
	// ~1.5% of cells dropped (the paper: mean gap 10k cells, mean size 665k).
	band2 := workload.SecondBand(band1, "Band2", cfg.Seed+3, 0.015)
	pred := join.Predicate{
		{Left: join.Term{Name: "time"}, Right: join.Term{Name: "time"}},
		{Left: join.Term{Name: "longitude"}, Right: join.Term{Name: "longitude"}},
		{Left: join.Term{Name: "latitude"}, Right: join.Term{Name: "latitude"}},
	}
	return runReal(cfg, band1, band2, pred, nil)
}

// runReal executes the merge join with every planner over fresh clusters.
func runReal(cfg RealConfig, left, right *array.Array, pred join.Predicate, out *array.Schema) ([]RealMeasurement, error) {
	planners := cfg.benchConfig().Planners()
	algo := join.Merge
	var rows []RealMeasurement
	for _, name := range PlannerNames {
		c := cluster.MustNew(realNodes)
		// The two arrays were loaded independently, so their chunk
		// placements are uncorrelated (round-robin vs. hashed).
		c.Load(left.Clone(), cluster.RoundRobin)
		c.Load(right.Clone(), cluster.HashChunks)
		rep, err := pipeline.Run(c, left.Schema.Name, right.Schema.Name, pred, out, pipeline.Options{
			Planner:    planners[name],
			ForceAlgo:  &algo,
			Hooks:      cfg.Hooks,
			QueryLabel: fmt.Sprintf("real %s ⋈ %s [%s planner]", left.Schema.Name, right.Schema.Name, name),
		})
		if err != nil {
			return nil, fmt.Errorf("bench: planner %s: %w", name, err)
		}
		rows = append(rows, RealMeasurement{
			Planner:    name,
			PlanSec:    rep.PlanTime,
			AlignSec:   rep.AlignTime,
			CompSec:    rep.CompareTime,
			TotalSec:   rep.Total,
			Matches:    rep.Matches,
			CellsMoved: rep.CellsMoved,
		})
	}
	return rows, nil
}

// RenderReal prints a real-data experiment's rows.
func RenderReal(w io.Writer, title string, rows []RealMeasurement) {
	fmt.Fprintf(w, "%s\n", title)
	for range title {
		fmt.Fprint(w, "=")
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-6s %12s %12s %12s %12s %10s %10s\n",
		"plan", "QueryPlan(s)", "DataAlign(s)", "CellComp(s)", "Total(s)", "matches", "moved")
	for _, m := range rows {
		fmt.Fprintf(w, "%-6s %12.3f %12.3f %12.3f %12.3f %10d %10d\n",
			m.Planner, m.PlanSec, m.AlignSec, m.CompSec, m.TotalSec, m.Matches, m.CellsMoved)
	}
	fmt.Fprintln(w)
}

// Speedup returns baseline total / best shuffle-planner total — the
// paper's headline 2.5× for beneficial skew.
func Speedup(rows []RealMeasurement) float64 {
	var base, best float64
	for _, m := range rows {
		if m.Planner == "B" {
			base = m.TotalSec
		} else if best == 0 || m.TotalSec < best {
			best = m.TotalSec
		}
	}
	if best == 0 {
		return 0
	}
	return base / best
}

// AlignReduction returns baseline alignment / best shuffle-planner
// alignment (the paper reports ≈20× for beneficial skew).
func AlignReduction(rows []RealMeasurement) float64 {
	var base, best float64
	for _, m := range rows {
		if m.Planner == "B" {
			base = m.AlignSec
		} else if best == 0 || m.AlignSec < best {
			best = m.AlignSec
		}
	}
	if best == 0 {
		return 0
	}
	return base / best
}
