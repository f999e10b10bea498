package bench

import (
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"shufflejoin/internal/join"
	"shufflejoin/internal/physical"
	"shufflejoin/internal/plancache"
	"shufflejoin/internal/simnet"
)

// MakespanRatioLimit is the plan-quality acceptance bound: at every swept
// skew level, the greedy fast path's modeled makespan must be within 10%
// of the full ILP planner's — or the greedy planner's regret rule must
// have fallen back for that configuration, in which case the query would
// have run the full planner anyway.
const MakespanRatioLimit = 1.10

// CacheHitBudgetFrac is the plan-cache acceptance bound: a cache hit
// (signature lookup plus revalidation against current statistics) must
// cost at most this fraction of the cold full planning it replaces.
const CacheHitBudgetFrac = 0.05

// PlanQualityRow is one configuration of the greedy-vs-ILP calibration
// sweep behind the greedy planner's default ε: per skew level and join
// algorithm, the planning wall-times of the greedy fast path, the full
// ILP planner, and a plan-cache hit, plus the modeled makespans their
// assignments achieve in the shuffle simulation.
type PlanQualityRow struct {
	Alpha float64 `json:"alpha"`
	Algo  string  `json:"algo"`

	// Real planning wall-times in microseconds.
	GreedyPlanMicros float64 `json:"greedy_plan_micros"`
	FullPlanMicros   float64 `json:"full_plan_micros"`
	CacheHitMicros   float64 `json:"cache_hit_micros"`  // lookup + revalidation
	CacheMissMicros  float64 `json:"cache_miss_micros"` // lookup of an absent signature

	// Modeled execution (simulated shuffle makespan + slowest node's
	// comparison) under each planner's assignment, in seconds.
	GreedyMakespanSec float64 `json:"greedy_makespan_sec"`
	FullMakespanSec   float64 `json:"full_makespan_sec"`
	// MakespanRatio is greedy over full; 1 means the fast path matched
	// the ILP plan's quality.
	MakespanRatio float64 `json:"makespan_ratio"`

	// Regret is the greedy assignment's predicted regret against the
	// analytic cost lower bound — the quantity physical.GreedyPlanner
	// thresholds. FellBack records whether the default ε
	// (physical.DefaultEpsilon) would have rejected the greedy plan and
	// run the full planner instead.
	Regret   float64 `json:"regret"`
	FellBack bool    `json:"fell_back"`
}

// modeledPhases simulates one assignment's data alignment and returns the
// shuffle makespan plus the slowest node's modeled comparison time.
func modeledPhases(cfg Config, pr *physical.Problem, assign physical.Assignment, sim *simnet.Sim) (alignSec, compSec float64, err error) {
	var transfers []simnet.Transfer
	for u := 0; u < pr.N; u++ {
		dest := assign[u]
		for j := 0; j < cfg.Nodes; j++ {
			if j != dest && pr.Sizes[u][j] > 0 {
				transfers = append(transfers, simnet.Transfer{From: j, To: dest, Cells: pr.Sizes[u][j], Tag: u})
			}
		}
	}
	align, err := sim.Simulate(simnet.Config{
		Nodes:       cfg.Nodes,
		PerCellTime: cfg.Params.Transfer,
		Scheduling:  cfg.Scheduling,
	}, transfers)
	if err != nil {
		return 0, 0, err
	}
	comp := make([]float64, cfg.Nodes)
	for u := 0; u < pr.N; u++ {
		comp[assign[u]] += pr.Comp[u]
	}
	var maxComp float64
	for _, c := range comp {
		if c > maxComp {
			maxComp = c
		}
	}
	return align.Makespan, maxComp, nil
}

// timedHitMiss measures a plan-cache hit (lookup + revalidation of the
// stored assignment against pr) and a miss (lookup of an absent key):
// each is the fastest of several blocks of iterations, averaged over its
// block to resolve microseconds. Noise such as a preemption only ever
// adds time, so the fastest block is the estimate.
func timedHitMiss(e *plancache.Entry, pr *physical.Problem) (hitMicros, missMicros float64, err error) {
	const iters, blocks = 64, 8
	pc := plancache.New()
	sig := plancache.Signature("planquality")
	pc.Store(sig, e)
	hitMicros, missMicros = math.Inf(1), math.Inf(1)
	for b := 0; b < blocks; b++ {
		start := time.Now()
		for i := 0; i < iters; i++ {
			ent, ok := pc.Lookup(sig)
			if !ok {
				return 0, 0, fmt.Errorf("bench: plan-cache lookup missed its own entry")
			}
			if _, ok := plancache.Revalidate(ent, pr); !ok {
				return 0, 0, fmt.Errorf("bench: revalidation rejected an unchanged problem")
			}
		}
		hitMicros = min(hitMicros, float64(time.Since(start).Microseconds())/iters)
		start = time.Now()
		for i := 0; i < iters; i++ {
			if _, ok := pc.Lookup(sig + "|absent"); ok {
				return 0, 0, fmt.Errorf("bench: plan-cache hit an absent signature")
			}
		}
		missMicros = min(missMicros, float64(time.Since(start).Microseconds())/iters)
	}
	return hitMicros, missMicros, nil
}

// PlanQuality runs the greedy-vs-ILP calibration sweep: for each Zipf
// skew level and both join algorithms, plan the same slice statistics
// with the greedy fast path and the full ILP planner, simulate both
// assignments, and time a plan-cache hit against the cold plans. The
// resulting ratios are the evidence behind physical.DefaultEpsilon and
// PlanQualityGate.
func PlanQuality(cfg Config, alphas []float64) ([]PlanQualityRow, error) {
	cfg = cfg.withDefaults()
	if len(alphas) == 0 {
		alphas = []float64{0, 0.5, 1.0, 1.5, 2.0}
	}
	full := physical.ILPPlanner{Budget: cfg.ILPBudget, MaxExplored: cfg.ILPMaxExplored, Workers: cfg.Workers}
	greedy := physical.GreedyPlanner{Workers: cfg.Workers}
	var sim simnet.Sim
	var out []PlanQualityRow
	for _, alpha := range alphas {
		for _, algo := range []join.Algorithm{join.Merge, join.Hash} {
			left, right := slicesFor(cfg, algo, alpha)
			pr, err := physical.NewProblem(cfg.Nodes, algo, left, right, cfg.Params)
			if err != nil {
				return nil, err
			}
			fres, err := full.Plan(pr)
			if err != nil {
				return nil, err
			}
			gres, err := greedy.Plan(pr)
			if err != nil {
				return nil, err
			}
			fAlign, fComp, err := modeledPhases(cfg, pr, fres.Assignment, &sim)
			if err != nil {
				return nil, err
			}
			gAlign, gComp, err := modeledPhases(cfg, pr, gres.Assignment, &sim)
			if err != nil {
				return nil, err
			}
			hitMicros, missMicros, err := timedHitMiss(&plancache.Entry{
				Assignment: gres.Assignment,
				Model:      gres.Model,
				Source:     "greedy",
			}, pr)
			if err != nil {
				return nil, err
			}
			row := PlanQualityRow{
				Alpha:             alpha,
				Algo:              algo.String(),
				GreedyPlanMicros:  float64(gres.PlanTime.Microseconds()),
				FullPlanMicros:    float64(fres.PlanTime.Microseconds()),
				CacheHitMicros:    hitMicros,
				CacheMissMicros:   missMicros,
				GreedyMakespanSec: gAlign + gComp,
				FullMakespanSec:   fAlign + fComp,
				Regret:            gres.Regret,
			}
			row.FellBack = row.Regret > physical.DefaultEpsilon
			if row.FullMakespanSec > 0 {
				row.MakespanRatio = row.GreedyMakespanSec / row.FullMakespanSec
			} else {
				row.MakespanRatio = 1
			}
			out = append(out, row)
		}
	}
	return out, nil
}

// PlanQualitySummary condenses a sweep into the numbers the gate and
// EXPERIMENTS.md quote.
type PlanQualitySummary struct {
	// MaxRatioKept is the worst greedy-vs-full makespan ratio among
	// configurations the greedy planner keeps (no fallback).
	MaxRatioKept float64 `json:"max_makespan_ratio_kept"`
	// Fallbacks counts configurations where the predicted regret
	// exceeded physical.DefaultEpsilon.
	Fallbacks int `json:"fallbacks"`
	// WorstHitFrac is the largest cache-hit cost as a fraction of the
	// cold full planning it replaces.
	WorstHitFrac float64 `json:"worst_cache_hit_fraction_of_full_plan"`
	// MinHitSpeedup is the smallest cold-full-plan / cache-hit speedup.
	MinHitSpeedup float64 `json:"min_cache_hit_speedup"`
}

// SummarizePlanQuality folds sweep rows into the gate's summary numbers.
func SummarizePlanQuality(rows []PlanQualityRow) PlanQualitySummary {
	var s PlanQualitySummary
	for _, r := range rows {
		if r.FellBack {
			s.Fallbacks++
		} else if r.MakespanRatio > s.MaxRatioKept {
			s.MaxRatioKept = r.MakespanRatio
		}
		if r.FullPlanMicros > 0 && r.CacheHitMicros > 0 {
			frac := r.CacheHitMicros / r.FullPlanMicros
			if frac > s.WorstHitFrac {
				s.WorstHitFrac = frac
			}
			if speedup := 1 / frac; s.MinHitSpeedup == 0 || speedup < s.MinHitSpeedup {
				s.MinHitSpeedup = speedup
			}
		}
	}
	return s
}

// PlanQualityGate enforces the plan-quality acceptance criteria on a
// sweep: every kept greedy plan within MakespanRatioLimit of the full
// planner (fallbacks are exempt — those queries run the full planner),
// and every cache hit within CacheHitBudgetFrac of the cold full plan it
// replaces. Returns nil when the sweep passes.
func PlanQualityGate(rows []PlanQualityRow) error {
	if len(rows) == 0 {
		return fmt.Errorf("bench: plan-quality gate got no rows")
	}
	for _, r := range rows {
		if !r.FellBack && r.MakespanRatio > MakespanRatioLimit {
			return fmt.Errorf("bench: greedy makespan ratio %.3f > %.2f at a=%.1f %s without fallback (regret %.4f)",
				r.MakespanRatio, MakespanRatioLimit, r.Alpha, r.Algo, r.Regret)
		}
		if r.FullPlanMicros > 0 && r.CacheHitMicros > CacheHitBudgetFrac*r.FullPlanMicros {
			return fmt.Errorf("bench: cache hit %.1fus > %.0f%% of cold full plan %.1fus at a=%.1f %s",
				r.CacheHitMicros, CacheHitBudgetFrac*100, r.FullPlanMicros, r.Alpha, r.Algo)
		}
	}
	return nil
}

// RenderPlanQuality writes the sweep as an aligned text table plus the
// summary line the acceptance criteria quote.
func RenderPlanQuality(w io.Writer, rows []PlanQualityRow) {
	title := "Plan quality: greedy fast path + plan cache vs full ILP planning"
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("=", len(title)))
	fmt.Fprintf(w, "%-8s %-7s %12s %12s %12s %12s %10s %10s %9s\n",
		"skew", "algo", "greedy_us", "full_us", "cachehit_us", "cachemiss_us", "ratio", "regret", "fallback")
	last := ""
	for _, r := range rows {
		g := fmt.Sprintf("a=%.1f", r.Alpha)
		if g != last && last != "" {
			fmt.Fprintln(w)
		}
		last = g
		fmt.Fprintf(w, "%-8s %-7s %12.1f %12.1f %12.2f %12.2f %10.3f %10.4f %9v\n",
			g, r.Algo, r.GreedyPlanMicros, r.FullPlanMicros, r.CacheHitMicros, r.CacheMissMicros,
			r.MakespanRatio, r.Regret, r.FellBack)
	}
	s := SummarizePlanQuality(rows)
	fmt.Fprintf(w, "\nkept greedy plans within %.1f%% of ILP makespan (limit %.0f%%); %d fallback(s); worst cache hit %.2f%% of cold plan (min speedup %.0fx)\n\n",
		100*(s.MaxRatioKept-1), 100*(MakespanRatioLimit-1), s.Fallbacks, 100*s.WorstHitFrac, s.MinHitSpeedup)
}
