// Command benchmark is the repository's benchmark. One run measures one
// workload, either end to end through the public facade or, with -trace 1,
// layer by layer; see README.md. BENCHMARK.json at the root of the repository
// declares the workloads, the metrics and their bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
)

// metricDecl is one metric of BENCHMARK.json.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json: the one place metrics and workloads are declared.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	spec := &benchSpec{}
	if err := json.Unmarshal(data, spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// resultLine renders a run as the one JSON object the driver reads: exactly
// the declared metrics of the pass, each with its unit. A declared metric the
// run did not produce is an error, so the program and BENCHMARK.json cannot
// drift apart unnoticed.
func resultLine(res *runResult, decls []metricDecl) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range decls {
		v, ok := res.Values[d.Name]
		if !ok {
			return "", fmt.Errorf("metric %s is declared in BENCHMARK.json but was not measured", d.Name)
		}
		if !metricName.MatchString(d.Name) {
			return "", fmt.Errorf("metric name %q is not allowed", d.Name)
		}
		metrics[d.Name] = value{v, d.Unit}
	}
	res.Correct = res.Failed == 0
	line, err := json.Marshal(struct {
		*runResult
		Metrics map[string]value `json:"metrics"`
	}{res, metrics})
	return string(line), err
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		workload = flag.String("workload", "", "run this one workload and print its result line (the driver's mode)")
		seed     = flag.Int64("seed", 1, "seed every input is generated from")
		seconds  = flag.Float64("seconds", 0, "how long one run measures (default: run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "0 measures end to end through the facade, 1 runs the traced per-layer pass")
		scaleArg = flag.String("scale", "full", "input sizes: full or smoke")
		specPath = flag.String("spec", "../BENCHMARK.json", "path of BENCHMARK.json")
		outDir   = flag.String("out", "out", "directory for trace and result files")
		aa       = flag.Bool("aa", false, "run the suite twice on this tree and hold every metric's spread against its bound")
		runs     = flag.Int("runs", 0, "end-to-end runs per workload, each with its own seed (default 1, with -aa 10)")
		compare  = flag.Bool("compare", false, "compare two result files: -compare old.json new.json")
	)
	flag.Parse()
	spec, err := loadSpec(*specPath)
	if err != nil {
		return err
	}
	sc, ok := scales[*scaleArg]
	if !ok {
		return fmt.Errorf("unknown scale %q (want full or smoke)", *scaleArg)
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare takes two result files: old.json new.json")
		}
		return compareFiles(spec, flag.Arg(0), flag.Arg(1))
	case *aa:
		if *runs == 0 {
			*runs = 10
		}
		return runAA(spec, *seconds, *scaleArg, *runs)
	case *workload != "":
		res, err := runWorkload(runConfig{*workload, *seed, *seconds, *trace != 0, sc, *outDir})
		if err != nil {
			return err
		}
		for _, e := range res.Errors {
			fmt.Fprintln(os.Stderr, "benchmark: failed", e)
		}
		decls := spec.EndToEnd
		if *trace != 0 {
			decls = spec.PerLayer
		}
		line, err := resultLine(res, decls)
		if err != nil {
			return err
		}
		fmt.Println(line)
		return nil
	}
	return runSuite(spec, *seed, max(*runs, 1), *seconds, *scaleArg, *outDir)
}

// suiteResult is the file a suite run writes and -compare reads.
type suiteResult struct {
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Scale      string  `json:"scale"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	// Workloads maps workload to metric to one value per run, both passes
	// together. Run i of the end-to-end pass has seed Seed+i; the traced
	// pass runs once, with Seed.
	Workloads samples        `json:"workloads"`
	Failed    map[string]int `json:"failed_ops"`
	Attempted map[string]int `json:"attempted_ops"`
}

// runChild runs one workload in a process of its own, as the driver does, so
// that no run inherits another's heap. It returns the parsed result line.
func runChild(workload string, seed int64, seconds float64, trace int, scaleArg string) (map[string]float64, int, int, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, 0, 0, err
	}
	args := []string{"-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
		"-trace", fmt.Sprint(trace), "-scale", scaleArg}
	// Flags the parent was given that the child must share.
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "spec" || f.Name == "out" {
			args = append(args, "-"+f.Name, f.Value.String())
		}
	})
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, 0, 0, fmt.Errorf("%s seed %d trace %d: %w", workload, seed, trace, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var line struct {
		Attempted, Failed int
		Metrics           map[string]struct{ Value float64 }
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		return nil, 0, 0, fmt.Errorf("%s: result line: %w", workload, err)
	}
	vals := map[string]float64{}
	for name, m := range line.Metrics {
		vals[name] = m.Value
	}
	return vals, line.Attempted, line.Failed, nil
}

// runSuite runs every workload, end to end and traced, prints every metric
// by name and unit, and writes the result file.
func runSuite(spec *benchSpec, seed int64, runs int, seconds float64, scaleArg, outDir string) error {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	sr := &suiteResult{
		Seed: seed, Seconds: seconds, Scale: scaleArg,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: commit,
		Failed: map[string]int{}, Attempted: map[string]int{},
	}
	var err error
	sr.Workloads, err = collect(spec, seed, runs, seconds, scaleArg, sr)
	if err != nil {
		return err
	}
	for _, w := range spec.Workloads {
		fmt.Printf("%s: %d ops, %d failed\n", w.Name, sr.Attempted[w.Name], sr.Failed[w.Name])
		for _, d := range append(append([]metricDecl(nil), spec.EndToEnd...), spec.PerLayer...) {
			fmt.Printf("  %-30s %14.6g %s\n", d.Name, median(sr.Workloads[w.Name][d.Name]), d.Unit)
		}
	}
	data, err := json.MarshalIndent(sr, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(outDir, fmt.Sprintf("result-%s.json", commit))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	var failed []string
	for w, n := range sr.Failed {
		if n > 0 {
			failed = append(failed, fmt.Sprintf("%s: %d", w, n))
		}
	}
	if len(failed) > 0 {
		sort.Strings(failed)
		return fmt.Errorf("failed ops: %s", strings.Join(failed, ", "))
	}
	return nil
}
