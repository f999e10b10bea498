package flight

import (
	"encoding/json"
	"io"
	"math"
	"time"
)

// Type identifies what an event records; its four arguments are typed
// per the schema table below.
type Type uint8

// Event types, one per instrumented engine decision. The comment names
// the four arguments in order (i=int64, f=float64 bits, l=label id;
// unused arguments are zero).
const (
	EvNone           Type = iota
	EvQueryStart          // l:query
	EvQueryFinish         // i:matches f:modeled_seconds i:wall_ns
	EvQueryError          // l:stage l:error
	EvStageStart          // l:stage
	EvStageFinish         // l:stage i:wall_ns f:sim_seconds
	EvBudgetCharge        // i:bytes i:used
	EvBudgetCredit        // i:bytes i:used
	EvBudgetOverflow      // i:used i:limit
	EvPostmortem          // l:reason
	EvSchedQueue          // l:class i:depth i:mem_used
	EvSchedAdmit          // l:class i:wait_ns i:inflight
	EvSchedReject         // l:class i:wait_ns l:reason

	numTypes // one past the last event type; sizes the schema table
)

// argKind types one event argument for decoding.
type argKind uint8

const (
	argNone  argKind = iota
	argInt           // plain int64
	argFloat         // float64 bits (encode with F, decode with Float)
	argLabel         // label intern-table id
)

// eventSchema names an event type and its arguments.
type eventSchema struct {
	name string
	args [4]struct {
		name string
		kind argKind
	}
}

func args(pairs ...any) (out [4]struct {
	name string
	kind argKind
}) {
	for i := 0; i < len(pairs)/2; i++ {
		out[i].name = pairs[2*i].(string)
		out[i].kind = pairs[2*i+1].(argKind)
	}
	return out
}

// schemas is the decode table, indexed by Type.
var schemas = [numTypes]eventSchema{
	EvNone:           {name: "none"},
	EvQueryStart:     {name: "query-start", args: args("query", argLabel)},
	EvQueryFinish:    {name: "query-finish", args: args("matches", argInt, "modeled_seconds", argFloat, "wall_ns", argInt)},
	EvQueryError:     {name: "query-error", args: args("stage", argLabel, "error", argLabel)},
	EvStageStart:     {name: "stage-start", args: args("stage", argLabel)},
	EvStageFinish:    {name: "stage-finish", args: args("stage", argLabel, "wall_ns", argInt, "sim_seconds", argFloat)},
	EvBudgetCharge:   {name: "budget-charge", args: args("bytes", argInt, "used", argInt)},
	EvBudgetCredit:   {name: "budget-credit", args: args("bytes", argInt, "used", argInt)},
	EvBudgetOverflow: {name: "budget-overflow", args: args("used", argInt, "limit", argInt)},
	EvPostmortem:     {name: "postmortem", args: args("reason", argLabel)},
	EvSchedQueue:     {name: "sched-queue", args: args("class", argLabel, "depth", argInt, "mem_used", argInt)},
	EvSchedAdmit:     {name: "sched-admit", args: args("class", argLabel, "wait_ns", argInt, "inflight", argInt)},
	EvSchedReject:    {name: "sched-reject", args: args("class", argLabel, "wait_ns", argInt, "reason", argLabel)},
}

// String returns the event type's wire name (e.g. "budget-charge").
func (t Type) String() string {
	if int(t) < len(schemas) && schemas[t].name != "" {
		return schemas[t].name
	}
	return "unknown"
}

// F encodes a float64 into an event argument (its IEEE-754 bits).
func F(v float64) int64 { return int64(math.Float64bits(v)) }

// Float decodes an argument written with F.
func Float(a int64) float64 { return math.Float64frombits(uint64(a)) }

// DecodedEvent is the JSON-friendly form of one event: the type's wire
// name and its arguments by name, with floats and labels resolved.
type DecodedEvent struct {
	Seq  uint64         `json:"seq"`
	Time time.Time      `json:"time"`
	Type string         `json:"type"`
	QID  uint32         `json:"qid,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// Decode resolves an event against the recorder's label table.
func (r *Recorder) Decode(e Event) DecodedEvent {
	d := DecodedEvent{Seq: e.Seq, Time: r.TimeOf(e), Type: e.Type.String(), QID: e.QID}
	if int(e.Type) >= len(schemas) {
		return d
	}
	sch := &schemas[e.Type]
	for i, a := range sch.args {
		if a.kind == argNone {
			break
		}
		if d.Args == nil {
			d.Args = make(map[string]any, 4)
		}
		switch a.kind {
		case argInt:
			d.Args[a.name] = e.Args[i]
		case argFloat:
			d.Args[a.name] = Float(e.Args[i])
		case argLabel:
			d.Args[a.name] = r.LabelName(e.Args[i])
		}
	}
	return d
}

// jsonPayload is the WriteJSON envelope (also served on /debug/flight).
type jsonPayload struct {
	Capacity int            `json:"capacity"`
	Recorded uint64         `json:"recorded"`
	Labels   int            `json:"labels"`
	Events   []DecodedEvent `json:"events"`
}

// WriteJSON emits up to max recent events (oldest first; max <= 0 means
// all retained) as indented JSON, decoded through the label table.
func (r *Recorder) WriteJSON(w io.Writer, max int) error {
	st := r.Stats()
	evs := r.Snapshot(max)
	payload := jsonPayload{
		Capacity: st.Capacity,
		Recorded: st.Recorded,
		Labels:   st.Labels,
		Events:   make([]DecodedEvent, 0, len(evs)),
	}
	for _, e := range evs {
		payload.Events = append(payload.Events, r.Decode(e))
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(payload)
}
