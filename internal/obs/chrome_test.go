package obs

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// buildSampleTrace assembles the span shapes the executor produces: a wall
// planning span, a simulated align span with transfer children, and
// per-node compare spans.
func buildSampleTrace() *Trace {
	tr := New("query")
	p := tr.Root().Child("plan.logical", time.Now(), 0.25)
	p.SetStr("plan", "mergeJoin(A, B)")

	al := tr.Root().SimChild("align", 0, 2.0)
	for i, x := range []struct {
		from, to int
		start    float64
	}{{0, 1, 0}, {2, 1, 0.5}} {
		xf := al.SimChild("xfer", x.start, x.start+0.5)
		xf.SetNum("transfer", 1)
		xf.SetInt("from", int64(x.from))
		xf.SetInt("to", int64(x.to))
		xf.SetInt("unit", int64(i))
		xf.SetInt("cells", 100)
	}
	cm := tr.Root().SimChild("compare", 2.0, 3.5)
	for n := 0; n < 3; n++ {
		ns := cm.SimChild("compare.node", 2.0, 2.0+float64(n))
		ns.SetNode(n)
	}
	return tr
}

// TestChromeTraceSchema validates the export against the trace-event
// format: required keys, known phase types, paired flow events, and
// per-node process metadata — the contract Perfetto needs to load it.
func TestChromeTraceSchema(t *testing.T) {
	var buf bytes.Buffer
	if err := buildSampleTrace().WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var file struct {
		TraceEvents     []map[string]any `json:"traceEvents"`
		DisplayTimeUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	if file.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", file.DisplayTimeUnit)
	}
	if len(file.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}

	flowStarts := map[float64]bool{}
	flowEnds := map[float64]bool{}
	processNames := map[float64]string{}
	valid := map[string]bool{"X": true, "M": true, "s": true, "f": true}
	for i, ev := range file.TraceEvents {
		for _, key := range []string{"name", "ph", "pid", "tid", "ts"} {
			if _, ok := ev[key]; !ok {
				t.Fatalf("event %d missing %q: %v", i, key, ev)
			}
		}
		ph := ev["ph"].(string)
		if !valid[ph] {
			t.Fatalf("event %d has unknown phase %q", i, ph)
		}
		switch ph {
		case "X":
			if dur, ok := ev["dur"].(float64); !ok || dur < 0 {
				t.Fatalf("complete event %d lacks non-negative dur: %v", i, ev)
			}
		case "s":
			flowStarts[ev["id"].(float64)] = true
		case "f":
			flowEnds[ev["id"].(float64)] = true
			if ev["bp"] != "e" {
				t.Fatalf("flow end %d must bind to enclosing slice (bp=e): %v", i, ev)
			}
		case "M":
			if ev["name"] == "process_name" {
				args := ev["args"].(map[string]any)
				processNames[ev["pid"].(float64)] = args["name"].(string)
			}
		}
	}

	if len(flowStarts) != 2 || len(flowEnds) != 2 {
		t.Fatalf("want 2 transfer flows, got %d starts / %d ends", len(flowStarts), len(flowEnds))
	}
	for id := range flowStarts {
		if !flowEnds[id] {
			t.Fatalf("flow %v has no end event", id)
		}
	}
	// One process per simulated node plus the wall-clock coordinator.
	if processNames[0] == "" {
		t.Error("pid 0 (coordinator) has no process_name metadata")
	}
	for _, pid := range []float64{1, 2, 3} {
		if processNames[pid] == "" {
			t.Errorf("pid %v (simulated node) has no process_name metadata", pid)
		}
	}
}
