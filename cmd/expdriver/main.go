// Command expdriver regenerates every table and figure of the paper's
// evaluation (Section 6) and prints them as text tables.
//
// Usage:
//
//	expdriver [-exp all|fig5|fig6|table1|table2|fig7|fig8|fig9|adversarial|fig10|planquality|beyond]
//	          [-scale small|full] [-seed N] [-budget DUR]
//	          [-trace FILE] [-metrics] [-json FILE] [-gate]
//	          [-obs-addr ADDR] [-slow-ms N] [-obs-hold DUR] [-postmortem-dir DIR]
//
// "planquality" is the greedy-vs-ILP calibration sweep behind the greedy
// planner's regret threshold: per Zipf skew level and join algorithm it
// reports planning wall-times (greedy fast path, full ILP, plan-cache
// hit) and the makespan ratio of the two assignments. -json writes the
// rows plus summary as JSON; -gate exits non-zero when the sweep
// violates the acceptance criteria (kept greedy ratio <= 1.10, cache
// hit <= 5% of the cold full plan).
//
// An unknown -exp or -scale value exits with status 2 and lists the valid
// names.
//
// "full" scale uses the paper's decision-space parameters (1024 join
// units, 4-node default cluster, 2–12 node scale-out) with cell counts
// scaled to run on one machine; "small" runs everything in a few seconds.
//
// "beyond" is the beyond-paper scale-out — merge join on 16–64 nodes with
// 100k+ simulated transfers per query at the top end — and is opt-in: it
// runs only when named explicitly, never as part of -exp all.
//
// -trace writes every pipeline query the selected experiments execute
// (fig5/fig6, fig9, adversarial) into one Chrome trace-event JSON file,
// loadable in Perfetto; -metrics prints the accumulated metric registry
// as JSON. Both match the cmd/shufflejoin flags of the same names, and
// both are rendered from the queries' finished Reports.
//
// -obs-addr serves live telemetry over HTTP while the experiments run:
// /metrics (Prometheus text format), /debug/queries (profiled query
// log; -slow-ms sets the slow-query threshold), /debug/inflight
// (per-stage progress), /debug/flight (the engine flight recorder), and
// /debug/status. -obs-hold keeps the endpoint up after the last
// experiment so scrapers can collect the final state.
//
// -postmortem-dir installs a process-wide diagnostic-bundle sink: any
// experiment query that panics, fails a strict check, or breaches
// -slow-ms writes a bundle of evidence (recent flight events, profile,
// goroutine stacks, heap profile) into the directory.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"shufflejoin/internal/bench"
	"shufflejoin/internal/flight"
	"shufflejoin/internal/obs"
	"shufflejoin/internal/obshttp"
	"shufflejoin/internal/pipeline"
)

// experiments lists the -exp names in run order; "beyond" is opt-in and
// excluded from "all".
var experiments = []string{"fig5", "fig6", "table1", "table2", "fig7", "fig8", "fig9", "adversarial", "fig10", "planquality", "beyond"}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its inputs and outputs as parameters; it returns the
// process exit status (0 ok, 1 an experiment failed, 2 bad usage).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("expdriver", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp         = fs.String("exp", "all", "experiment to run: all, "+strings.Join(experiments, ", ")+" (beyond is opt-in and excluded from all)")
		scale       = fs.String("scale", "full", "experiment scale: small or full")
		seed        = fs.Int64("seed", 1, "deterministic seed")
		budget      = fs.Duration("budget", 0, "ILP solver time budget (default 2s full, 200ms small)")
		maxExplored = fs.Int64("maxexplored", 0, "deterministic ILP node budget: cap branch-and-bound at N explored nodes (forces sequential ILP search so truncated plans reproduce exactly; wall-clock budget stays as a safety cap)")
		par         = fs.Int("par", 0, "planner parallelism: workers for Tabu neighborhood evaluation and the ILP search (<= 1 sequential; results identical either way)")
		calibrate   = fs.Bool("calibrate", false, "measure the cost-model parameters m, b, p on this machine instead of using defaults")
		traceFile   = fs.String("trace", "", "write the pipeline spans of every executed query as Chrome trace-event JSON to this file (load in Perfetto)")
		metrics     = fs.Bool("metrics", false, "print the accumulated query metric registry as JSON")
		jsonFile    = fs.String("json", "", "planquality: write the experiment's rows and summary as JSON to this file")
		gate        = fs.Bool("gate", false, "planquality: exit non-zero when the run violates the experiment's acceptance criteria")
		obsAddr     = fs.String("obs-addr", "", "serve live telemetry on this address (/metrics, /debug/queries, /debug/inflight, /debug/flight, /debug/status); e.g. :8080 or :0")
		slowMs      = fs.Float64("slow-ms", 0, "mark queries at or above this wall time (ms) as slow in /debug/queries (with -postmortem-dir, also the slow-query bundle threshold)")
		obsHold     = fs.Duration("obs-hold", 0, "keep the telemetry endpoint up this long after the experiments finish")
		pmDir       = fs.String("postmortem-dir", "", "capture diagnostic bundles (flight events, profile, goroutine stacks) into this directory when an experiment query panics, fails a strict check, or breaches -slow-ms")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *exp != "all" && !slices.Contains(experiments, *exp) {
		fmt.Fprintf(stderr, "unknown experiment %q (valid: all, %s)\n", *exp, strings.Join(experiments, ", "))
		return 2
	}
	if *scale != "small" && *scale != "full" {
		fmt.Fprintf(stderr, "unknown scale %q (valid: small, full)\n", *scale)
		return 2
	}

	if *pmDir != "" {
		flight.SetDefaultPostmortem(&flight.Postmortem{
			Dir:       *pmDir,
			SlowQuery: time.Duration(*slowMs * float64(time.Millisecond)),
		})
	}

	var col *collector
	if *traceFile != "" || *metrics || *obsAddr != "" {
		col = &collector{reg: obs.NewRegistry(), keep: *traceFile != ""}
	}
	var hub *obshttp.Hub
	if *obsAddr != "" {
		hub = obshttp.NewHub(obshttp.Config{
			Registry:  col.reg,
			SlowQuery: time.Duration(*slowMs * float64(time.Millisecond)),
			Status: obshttp.StatusInfo{
				Component: "expdriver",
				Details: map[string]string{
					"exp":   *exp,
					"scale": *scale,
					"seed":  fmt.Sprint(*seed),
				},
			},
		})
		addr, err := hub.Serve(*obsAddr)
		if err != nil {
			fmt.Fprintf(stderr, "obs: %v\n", err)
			return 1
		}
		defer hub.Close()
		col.hub = hub
		fmt.Fprintf(stdout, "telemetry on http://%s/metrics (also /debug/queries, /debug/inflight)\n", addr)
	}

	cfg := bench.Config{Seed: *seed, ILPMaxExplored: *maxExplored, Workers: *par}
	rcfg := bench.RealConfig{Seed: *seed, ILPMaxExplored: *maxExplored, Workers: *par}
	lcfg := bench.LogicalConfig{Seed: *seed}
	if col != nil {
		rcfg.Hooks = col
		lcfg.Hooks = col
	}
	if *scale == "small" { // "full" is the library defaults: 1024 units, 4M cells/side, 2s budget
		cfg.Units = 256
		cfg.CellsPerSide = 1 << 20
		cfg.ILPBudget = 200 * time.Millisecond
		rcfg.AISCells = 40_000
		rcfg.MODISCells = 60_000
		rcfg.ILPBudget = 200 * time.Millisecond
		lcfg.CellsPerSide = 10_000
	}
	if *budget != 0 {
		cfg.ILPBudget = *budget
		rcfg.ILPBudget = *budget
	}
	if *calibrate {
		cfg.Params = bench.Calibrate(0, *seed)
		fmt.Fprintf(stdout, "calibrated cost parameters: m=%.3gs b=%.3gs p=%.3gs t=%.3gs per cell\n\n",
			cfg.Params.Merge, cfg.Params.Build, cfg.Params.Probe, cfg.Params.Transfer)
	}

	failed := false
	do := func(name string, f func() error) {
		if failed || (*exp != "all" && *exp != name) {
			return
		}
		if err := f(); err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", name, err)
			failed = true
		}
	}

	// renderPhys prints one modeled physical-planner sweep.
	renderPhys := func(title, axis string, group func(bench.PhysMeasurement) string, rows []bench.PhysMeasurement, err error) error {
		if err != nil {
			return err
		}
		bench.RenderPhys(stdout, title, axis, rows, group)
		return nil
	}
	renderLogical := func() error {
		rows, err := bench.RunLogical(lcfg)
		if err != nil {
			return err
		}
		fit, err := bench.Fig5Fit(rows)
		if err != nil {
			return err
		}
		bench.RenderLogical(stdout, rows, fit)
		fmt.Fprintf(stdout, "minimum-cost plan is also fastest: %v\n\n", bench.MinCostIsFastest(rows))
		return nil
	}

	do("fig5", renderLogical)
	if *exp == "fig6" { // fig5 and fig6 share one run and renderer; "all" runs it once
		do("fig6", renderLogical)
	}
	do("table1", func() error {
		rows, fits, err := bench.Table1Operators(nil, *seed)
		if err != nil {
			return err
		}
		bench.RenderTable1(stdout, rows, fits)
		return nil
	})
	do("table2", func() error {
		rows, fit, err := bench.Table2(cfg)
		if err != nil {
			return err
		}
		bench.RenderTable2(stdout, rows, fit)
		return nil
	})
	do("fig7", func() error {
		rows, err := bench.Fig7(cfg)
		return renderPhys("Figure 7: merge join under skew", "skew", bench.GroupByAlpha, rows, err)
	})
	do("fig8", func() error {
		rows, err := bench.Fig8(cfg)
		return renderPhys("Figure 8: hash join under skew", "skew", bench.GroupByAlpha, rows, err)
	})
	do("fig9", func() error {
		rows, err := bench.Fig9(rcfg)
		if err != nil {
			return err
		}
		bench.RenderReal(stdout, "Figure 9: merge join on real-world analogue (beneficial skew)", rows)
		fmt.Fprintf(stdout, "end-to-end speedup over baseline: %.2fx (paper ~2.5x)\n", bench.Speedup(rows))
		fmt.Fprintf(stdout, "data alignment reduction:        %.2fx (paper ~20x)\n\n", bench.AlignReduction(rows))
		return nil
	})
	do("adversarial", func() error {
		rows, err := bench.Adversarial(rcfg)
		if err != nil {
			return err
		}
		bench.RenderReal(stdout, "Section 6.3.2: adversarial skew (two matched bands, NDVI join)", rows)
		return nil
	})
	do("fig10", func() error {
		rows, err := bench.Fig10(cfg, nil)
		return renderPhys("Figure 10: scale-out of merge join (skew a=1.0)", "nodes", bench.GroupByNodes, rows, err)
	})
	do("planquality", func() error {
		rows, err := bench.PlanQuality(cfg, nil)
		if err != nil {
			return err
		}
		bench.RenderPlanQuality(stdout, rows)
		if *jsonFile != "" {
			payload := struct {
				Experiment string                   `json:"experiment"`
				Rows       []bench.PlanQualityRow   `json:"rows"`
				Summary    bench.PlanQualitySummary `json:"summary"`
			}{"planquality", rows, bench.SummarizePlanQuality(rows)}
			data, err := json.MarshalIndent(payload, "", "  ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(*jsonFile, append(data, '\n'), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "plan-quality JSON written to %s\n\n", *jsonFile)
		}
		if *gate {
			if err := bench.PlanQualityGate(rows); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "plan-quality gate passed: kept ratios <= %.2f, cache hits <= %.0f%% of cold plans\n\n",
				bench.MakespanRatioLimit, bench.CacheHitBudgetFrac*100)
		}
		return nil
	})
	if *exp == "beyond" { // opt-in only: not part of -exp all
		do("beyond", func() error {
			bcfg := cfg
			if *scale == "full" {
				bcfg.Units = 0 // let Beyond pick its doubled-unit default
			}
			rows, err := bench.Beyond(bcfg, nil)
			return renderPhys("Beyond-paper scale-out: merge join, 16-64 nodes (skew a=1.0)", "nodes", bench.GroupByNodes, rows, err)
		})
	}
	if failed {
		return 1
	}

	if *traceFile != "" {
		if err := writeTrace(col.reps, *traceFile); err != nil {
			fmt.Fprintf(stderr, "trace: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "\nChrome trace written to %s (open in ui.perfetto.dev)\n", *traceFile)
	}
	if *metrics {
		fmt.Fprintln(stdout, "\nmetrics:")
		if err := col.reg.WriteJSON(stdout); err != nil {
			fmt.Fprintf(stderr, "metrics: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout)
	}
	if hub != nil && *obsHold > 0 {
		fmt.Fprintf(stdout, "holding telemetry endpoint for %s\n", *obsHold)
		time.Sleep(*obsHold)
	}
	return 0
}

// collector is the driver's query hook: it folds each finished query's
// Report into the registry behind -metrics and /metrics, keeps the
// Reports (without their Output) for -trace, and forwards to the hub
// when one is set. The experiments run their queries one at a time, so
// only the registry, which the hub also reads, needs its lock.
type collector struct {
	reg  *obs.Registry
	keep bool
	hub  *obshttp.Hub
	reps []*pipeline.Report
}

func (c *collector) QueryStarted(p *pipeline.Progress) {
	if c.hub != nil {
		c.hub.QueryStarted(p)
	}
}

func (c *collector) QueryFinished(p *pipeline.Progress, rep *pipeline.Report, err error) {
	pipeline.FoldMetrics(c.reg, rep, err != nil)
	if c.keep {
		kept := *rep
		kept.Output = nil
		c.reps = append(c.reps, &kept)
	}
	if c.hub != nil {
		c.hub.QueryFinished(p, rep, err)
	}
}

func writeTrace(reps []*pipeline.Report, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pipeline.WriteChrome(f, "expdriver", reps...); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
