package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// samples holds, per workload and metric, one value per run.
type samples map[string]map[string][]float64

// quartiles are the first and third quartile as Python's
// statistics.quantiles(values, n=4) gives them (the exclusive method), which
// is how the driver measures spread. It needs two values.
func quartiles(vals []float64) (q1, q3 float64) {
	s := sorted(vals)
	m := len(s)
	at := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	q1, q3 := quartiles(vals)
	return math.Abs((q3 - q1) / median(vals))
}

// row is one workload × end-to-end metric of a comparison.
type row struct {
	workload string
	metricDecl
	old, new float64 // medians
	worseBy  float64 // change of the median in the worse direction, as a share of old
	spread   float64 // the wider of the two sides' spreads
	verdict  string
}

// compareSamples judges every workload × end-to-end metric. A metric whose
// spread is wider than its bound is unresolved: neither side's median means
// anything at that resolution. Otherwise it is worse when the new median is
// worse by more than the bound, better when it is better by more than the
// old side's own spread (or, when there are too few runs to have a spread,
// by more than the bound), and the same in between.
func compareSamples(spec *benchSpec, old, new samples) []row {
	var rows []row
	for _, w := range spec.Workloads {
		for _, d := range spec.EndToEnd {
			o, n := old[w.Name][d.Name], new[w.Name][d.Name]
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			r := row{workload: w.Name, metricDecl: d, old: median(o), new: median(n)}
			r.worseBy = (r.new - r.old) / r.old
			if d.Better == "higher" {
				r.worseBy = -r.worseBy
			}
			r.spread = math.Max(spread(o), spread(n))
			noise := spread(o)
			if len(o) < 4 {
				noise = d.Bound
			}
			switch {
			case r.spread > d.Bound:
				r.verdict = "unresolved"
			case r.worseBy > d.Bound:
				r.verdict = "worse"
			case -r.worseBy > noise:
				r.verdict = "better"
			default:
				r.verdict = "same"
			}
			rows = append(rows, r)
		}
	}
	return rows
}

func printRows(rows []row) {
	fmt.Printf("%-13s %-16s %12s %12s %9s %9s %8s  %s\n", "workload", "metric", "old", "new", "delta", "spread", "bound", "verdict")
	for _, r := range rows {
		delta := 100 * (r.new - r.old) / r.old
		fmt.Printf("%-13s %-16s %12.5g %12.5g %+8.2f%% %8.2f%% %7.1f%%  %s\n",
			r.workload, r.Name, r.old, r.new, delta, 100*r.spread, 100*r.Bound, r.verdict)
	}
}

// compareFiles renders two suite result files against each other: one row
// per workload × end-to-end metric, the per-layer deltas underneath.
func compareFiles(spec *benchSpec, oldPath, newPath string) error {
	load := func(path string) (*suiteResult, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		sr := &suiteResult{}
		if err := json.Unmarshal(data, sr); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return sr, nil
	}
	old, err := load(oldPath)
	if err != nil {
		return err
	}
	new, err := load(newPath)
	if err != nil {
		return err
	}
	for _, sr := range []*suiteResult{old, new} {
		fmt.Printf("commit %s: seed %d, %g s, scale %s, nproc %d, GOMAXPROCS %d, %s\n",
			sr.Commit, sr.Seed, sr.Seconds, sr.Scale, sr.NProc, sr.GOMAXPROCS, sr.GoVersion)
	}
	rows := compareSamples(spec, old.Workloads, new.Workloads)
	printRows(rows)
	fmt.Printf("\n%-13s %-30s %12s %12s %9s\n", "workload", "layer metric", "old", "new", "delta")
	for _, w := range spec.Workloads {
		for _, d := range spec.PerLayer {
			o, n := old.Workloads[w.Name][d.Name], new.Workloads[w.Name][d.Name]
			if len(o) == 0 || len(n) == 0 || (median(o) == 0 && median(n) == 0) {
				continue
			}
			mo, mn := median(o), median(n)
			fmt.Printf("%-13s %-30s %12.5g %12.5g %+8.2f%%  %s\n", w.Name, d.Name, mo, mn, 100*(mn-mo)/mo, d.Unit)
		}
	}
	for _, r := range rows {
		if r.verdict == "worse" {
			return fmt.Errorf("%s %s is worse by %.1f%%, bound %.1f%%", r.workload, r.Name, 100*r.worseBy, 100*r.Bound)
		}
	}
	return nil
}

// collect runs every workload end to end `runs` times, each run in a process
// of its own with seed first, first+1, ... With a suite result to fill in it
// also runs each workload's traced pass once and counts the ops.
func collect(spec *benchSpec, first int64, runs int, seconds float64, scaleArg string, sr *suiteResult) (samples, error) {
	out := samples{}
	for _, w := range spec.Workloads {
		out[w.Name] = map[string][]float64{}
		for i := 0; i <= runs; i++ {
			seed, trace := first+int64(i), 0
			if i == runs {
				if sr == nil {
					break
				}
				seed, trace = first, 1
			}
			vals, attempted, failed, err := runChild(w.Name, seed, seconds, trace, scaleArg)
			if err != nil {
				return nil, err
			}
			if sr != nil {
				sr.Attempted[w.Name] += attempted
				sr.Failed[w.Name] += failed
			} else if failed > 0 {
				return nil, fmt.Errorf("%s seed %d: %d of %d ops failed", w.Name, seed, failed, attempted)
			}
			for name, v := range vals {
				out[w.Name][name] = append(out[w.Name][name], v)
			}
		}
		fmt.Fprintf(os.Stderr, "benchmark: %s: %d runs done\n", w.Name, runs)
	}
	return out, nil
}

// runAA measures the same tree twice, the way the driver accepts a
// benchmark: `runs` runs per workload with seeds 1..runs, then the same
// again. Every spread must stay within the metric's bound and the second
// median may not be worse than the first by more than the bound. The seeds
// repeat, so a deterministic metric agrees exactly between the sets.
func runAA(spec *benchSpec, seconds float64, scaleArg string, runs int) error {
	var sets [2]samples
	for i := range sets {
		s, err := collect(spec, 1, runs, seconds, scaleArg, nil)
		if err != nil {
			return err
		}
		sets[i] = s
	}
	rows := compareSamples(spec, sets[0], sets[1])
	printRows(rows)
	var breaches []string
	for _, r := range rows {
		// The driver does not hold the spread of setup_s against its bound.
		if r.verdict == "worse" || (r.verdict == "unresolved" && r.Name != "setup_s") {
			breaches = append(breaches, r.workload+" "+r.Name)
		} else if r.spread > r.Bound/3 && r.Name != "setup_s" {
			fmt.Printf("note: %s %s: spread %.2f%% is above a third of its bound\n", r.workload, r.Name, 100*r.spread)
		}
	}
	if len(breaches) > 0 {
		sort.Strings(breaches)
		return fmt.Errorf("%d of %d rows breach their bound: %v", len(breaches), len(rows), breaches)
	}
	return nil
}
