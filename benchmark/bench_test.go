package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func testSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSmoke runs every workload at smoke scale, end to end and traced: every
// declared metric is emitted under an allowed name, every op passes its
// oracle, no end-to-end metric is 0, and the child spans of the traced ops
// cover at least 95% of them.
func TestSmoke(t *testing.T) {
	spec := testSpec(t)
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program has %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Fatalf("BENCHMARK.json workload %d is %s, the program's is %s", i, w.Name, workloadNames[i])
		}
		t.Run(w.Name, func(t *testing.T) {
			out := t.TempDir()
			cfg := runConfig{workload: w.Name, seed: 7, seconds: 0.2, sc: scales["smoke"], outDir: out}
			for _, pass := range []struct {
				trace bool
				decls []metricDecl
			}{{false, spec.EndToEnd}, {true, spec.PerLayer}} {
				cfg.trace = pass.trace
				res, err := runWorkload(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("trace=%v: %d of %d ops failed: %v", pass.trace, res.Failed, res.Attempted, res.Errors)
				}
				line, err := resultLine(res, pass.decls)
				if err != nil {
					t.Fatal(err)
				}
				var parsed struct {
					Correct bool
					Metrics map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(line), &parsed); err != nil {
					t.Fatal(err)
				}
				if !parsed.Correct || len(parsed.Metrics) != len(pass.decls) {
					t.Fatalf("trace=%v: correct=%v with %d metrics, want %d", pass.trace, parsed.Correct, len(parsed.Metrics), len(pass.decls))
				}
				for name, m := range parsed.Metrics {
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || (!pass.trace && m.Value <= 0) {
						t.Errorf("%s = %v", name, m.Value)
					}
				}
			}

			data, err := os.ReadFile(filepath.Join(out, "trace-"+w.Name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var trace struct{ Spans []span }
			if err := json.Unmarshal(data, &trace); err != nil {
				t.Fatal(err)
			}
			covered := map[int]int64{}
			for _, s := range trace.Spans {
				if s.Parent != 0 {
					covered[s.Parent] += s.EndNs - s.StartNs
				}
			}
			// Ops at this scale take about a millisecond, so allow each a
			// scheduler hiccup between spans. Two clients on one core
			// deschedule each other for longer than that: there, hold the
			// median op to the 95%.
			b, err := newBench(w.Name, cfg.sc, cfg.seed, out)
			if err != nil {
				t.Fatal(err)
			}
			var shares []float64
			for _, s := range trace.Spans {
				if s.Parent != 0 || s.Name != "op" {
					continue
				}
				wall := s.EndNs - s.StartNs
				gap := wall - covered[s.ID]
				shares = append(shares, float64(gap)/float64(wall))
				if b.clients() == 1 && gap > max(wall/20, 100_000) {
					t.Errorf("op %d: child spans leave %d of %d ns uncovered", s.Op, gap, wall)
				}
			}
			if len(shares) == 0 || median(shares) > 0.05 {
				t.Errorf("%d traced ops, child spans leave %v of the median op uncovered", len(shares), median(shares))
			}
		})
	}
}

// TestSpec holds BENCHMARK.json to the limits the driver refuses a file over.
func TestSpec(t *testing.T) {
	spec := testSpec(t)
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 6 || len(raw) > 64<<10 {
		t.Errorf("%d top-level keys in %d bytes, want 6 keys in at most 64 KiB", len(keys), len(raw))
	}
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !metricName.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range spec.Workloads {
		name(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	setup := false
	for _, d := range spec.EndToEnd {
		name(d.Name)
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v", d.Name, d.Bound)
		}
	}
	if !setup {
		t.Error("no setup_s metric in s, lower is better")
	}
	for _, d := range append(append([]metricDecl(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("%s: unit %q, better %q", d.Name, d.Unit, d.Better)
		}
	}
	for _, d := range spec.PerLayer {
		name(d.Name)
		if d.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", d.Name)
		}
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 || len(spec.PerLayer) < 1 || len(spec.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", n, len(spec.PerLayer))
	}
	if runs := 4 + 22*len(spec.Workloads); spec.RunSeconds < 1 || spec.RunSeconds > 60 || runs*spec.RunSeconds > 3420 {
		t.Errorf("run_seconds %d cannot fit %d runs into 3420 s", spec.RunSeconds, runs)
	}
}

// TestQuartiles pins the spread arithmetic to Python's
// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestQuartiles(t *testing.T) {
	vals := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if q1, q3 := quartiles(vals); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if got := spread(vals); got != 1 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestCompareVerdicts(t *testing.T) {
	spec := &benchSpec{EndToEnd: []metricDecl{
		{Name: "lat", Better: "lower", Bound: 0.10},
		{Name: "qps", Better: "higher", Bound: 0.10},
	}}
	spec.Workloads = append(spec.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "w"})
	steady := func(center float64) []float64 {
		return []float64{center * 0.995, center, center * 1.005, center, center * 0.998, center * 1.002}
	}
	for _, c := range []struct {
		name     string
		old, new []float64
		lat, qps string
	}{
		{"within the bound", steady(100), steady(104), "same", "better"},
		{"beyond the bound", steady(100), steady(115), "worse", "better"},
		{"the other way", steady(100), steady(85), "better", "worse"},
		{"too noisy to tell", []float64{60, 100, 140, 80, 120, 100}, steady(100), "unresolved", "unresolved"},
		{"one run each", []float64{100}, []float64{95}, "same", "same"},
	} {
		rows := compareSamples(spec, samples{"w": {"lat": c.old, "qps": c.old}}, samples{"w": {"lat": c.new, "qps": c.new}})
		if rows[0].verdict != c.lat || rows[1].verdict != c.qps {
			t.Errorf("%s: lat %s, qps %s; want %s, %s", c.name, rows[0].verdict, rows[1].verdict, c.lat, c.qps)
		}
	}
}
