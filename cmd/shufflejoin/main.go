// Command shufflejoin runs an AQL join query over a simulated
// shared-nothing cluster, loading its input arrays from .sjar files (see
// cmd/datagen).
//
// Usage:
//
//	shufflejoin -nodes 4 -data data/ -planner tabu \
//	    "SELECT A.v, B.w FROM A, B WHERE A.i = B.i"
//
// The query's phase breakdown (planning, data alignment, cell comparison)
// is printed along with a sample of the output cells.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"shufflejoin"
	"shufflejoin/internal/flight"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its inputs and outputs as parameters; it returns the
// process exit status (0 ok, 1 the query or its I/O failed, 2 bad usage).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("shufflejoin", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		nodes   = fs.Int("nodes", 4, "cluster size")
		dataDir = fs.String("data", "data", "directory of .sjar array files")
		planner = fs.String("planner", "mbh", "physical planner: baseline, mbh, tabu, ilp, coarse")
		budget  = fs.Duration("budget", 2*time.Second, "ILP solver time budget")
		algo    = fs.String("algo", "", "force join algorithm: hash, merge, nestedloop")
		sel     = fs.Float64("sel", 0, "optimizer selectivity estimate (output = sel*(nA+nB))")
		sample  = fs.Int("sample", 10, "output cells to print")
		fifo    = fs.Bool("fifo", false, "use naive FIFO shuffle scheduling instead of greedy locks")
		par     = fs.Int("par", 0, "planning/execution workers: 0 = one per CPU, 1 = sequential (results identical at every setting)")
		strict  = fs.Bool("strict", false, "fail on output cells outside the destination's dimension ranges instead of clamping")
		explain = fs.Bool("explain", false, "print the optimizer's candidate plans instead of executing")
		trace   = fs.String("trace", "", "write the query trace as Chrome trace-event JSON to this file (load in Perfetto)")
		analyze = fs.Bool("analyze", false, "print the query's EXPLAIN ANALYZE profile, one per join step (per-stage timings, plan provenance, planner search, per-node skew)")
		obsAddr = fs.String("obs-addr", "", "serve live telemetry on this address (/metrics, /debug/queries, /debug/inflight, /debug/flight, /debug/status); e.g. :8080 or :0")
		slowMs  = fs.Float64("slow-ms", 0, "mark queries at or above this wall time (ms) as slow in /debug/queries (with -postmortem-dir, also the slow-query bundle threshold)")
		obsHold = fs.Duration("obs-hold", 0, "keep the telemetry endpoint up this long after the query finishes")
		pmDir   = fs.String("postmortem-dir", "", "capture a diagnostic bundle (flight events, profile, goroutine stacks) into this directory when the query panics, fails a strict check, or breaches -slow-ms")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: shufflejoin [flags] \"SELECT ... FROM A, B WHERE ...\"")
		fs.PrintDefaults()
		return 2
	}
	query := fs.Arg(0)
	if _, err := shufflejoin.PlannerByName(*planner, *budget); err != nil {
		fmt.Fprintln(stderr, "shufflejoin:", err)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "shufflejoin:", err)
		return 1
	}

	if *pmDir != "" {
		flight.SetDefaultPostmortem(&flight.Postmortem{
			Dir:       *pmDir,
			SlowQuery: time.Duration(*slowMs * float64(time.Millisecond)),
		})
	}

	db, err := shufflejoin.Open(*nodes)
	if err != nil {
		return fail(err)
	}
	files, err := filepath.Glob(filepath.Join(*dataDir, "*.sjar"))
	if err != nil {
		return fail(err)
	}
	if len(files) == 0 {
		return fail(fmt.Errorf("no .sjar files in %s (generate some with cmd/datagen)", *dataDir))
	}
	for _, f := range files {
		ar, err := db.LoadFile(f)
		if err != nil {
			return fail(fmt.Errorf("loading %s: %w", f, err))
		}
		fmt.Fprintf(stdout, "loaded %s (%d cells, %d chunks)\n", ar.Schema(), ar.CellCount(), ar.ChunkCount())
	}

	opts := []shufflejoin.QueryOption{shufflejoin.WithPlanner(*planner, *budget)}
	if *algo != "" {
		opts = append(opts, shufflejoin.WithAlgorithm(*algo))
	}
	if *sel > 0 {
		opts = append(opts, shufflejoin.WithSelectivity(*sel))
	}
	if *fifo {
		opts = append(opts, shufflejoin.WithFIFOShuffle())
	}
	if *par != 0 {
		opts = append(opts, shufflejoin.WithParallelism(*par))
	}
	if *strict {
		opts = append(opts, shufflejoin.WithStrict())
	}
	var hub *shufflejoin.ObsHub
	if *obsAddr != "" {
		details := map[string]string{
			"nodes":       fmt.Sprint(*nodes),
			"planner":     *planner,
			"data":        *dataDir,
			"parallelism": fmt.Sprint(*par),
			"scheduling":  map[bool]string{false: "greedy-locks", true: "fifo"}[*fifo],
		}
		hub = db.NewObsHub(shufflejoin.ObsConfig{
			SlowQuery: time.Duration(*slowMs * float64(time.Millisecond)),
			Status:    shufflejoin.StatusInfo{Component: "shufflejoin", Details: details},
		})
		addr, err := hub.Serve(*obsAddr)
		if err != nil {
			return fail(err)
		}
		defer hub.Close()
		fmt.Fprintf(stdout, "telemetry on http://%s/metrics (also /debug/queries, /debug/inflight)\n", addr)
		opts = append(opts, shufflejoin.WithQueryLog(hub))
	}

	if *explain {
		ex, err := db.Explain(query, opts...)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "\nestimated selectivity: %.4g\n", ex.Selectivity)
		fmt.Fprintf(stdout, "%-55s %-12s %-14s %9s %14s\n", "plan", "algorithm", "units", "#units", "modeled cost")
		for _, p := range ex.Plans {
			fmt.Fprintf(stdout, "%-55s %-12s %-14s %9d %14.4g\n", p.Plan, p.Algorithm, p.Units, p.NumUnits, p.Cost)
		}
		return 0
	}

	res, err := db.Query(query, opts...)
	if err != nil {
		return fail(err)
	}

	fmt.Fprintf(stdout, "\nlogical plan:   %s\n", res.Plan)
	fmt.Fprintf(stdout, "join algorithm: %s\n", res.Algorithm)
	fmt.Fprintf(stdout, "planner:        %s\n", res.Planner)
	fmt.Fprintf(stdout, "matches:        %d\n", res.Matches)
	fmt.Fprintf(stdout, "cells moved:    %d\n", res.CellsMoved)
	if res.ClampedCells > 0 {
		fmt.Fprintf(stdout, "WARNING: %d output cells clamped onto the destination boundary (rerun with -strict to fail instead)\n", res.ClampedCells)
	}
	fmt.Fprintf(stdout, "query plan:     %8.3fs\n", res.PlanSeconds)
	fmt.Fprintf(stdout, "data align:     %8.3fs (simulated)\n", res.AlignSeconds)
	fmt.Fprintf(stdout, "cell compare:   %8.3fs (simulated)\n", res.CompareSeconds)
	fmt.Fprintf(stdout, "total:          %8.3fs\n", res.TotalSeconds)

	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			return fail(err)
		}
		if err := res.ChromeTrace(f); err != nil {
			f.Close()
			return fail(err)
		}
		if err := f.Close(); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "\nChrome trace written to %s (open in ui.perfetto.dev)\n", *trace)
	}
	if *analyze {
		for _, p := range res.Profiles() {
			fmt.Fprintf(stdout, "\n%s", p)
		}
	}
	if hub != nil && *obsHold > 0 {
		fmt.Fprintf(stdout, "holding telemetry endpoint for %s\n", *obsHold)
		time.Sleep(*obsHold)
	}

	if *sample > 0 {
		fmt.Fprintf(stdout, "\noutput sample (%s):\n", res.OutputSchema)
		n := 0
		res.Scan(func(c shufflejoin.Cell) bool {
			parts := make([]string, len(c.Values))
			for i, v := range c.Values {
				parts[i] = fmt.Sprint(v)
			}
			fmt.Fprintf(stdout, "  %v -> (%s)\n", c.Coords, strings.Join(parts, ", "))
			n++
			return n < *sample
		})
	}
	return 0
}
