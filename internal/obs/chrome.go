package obs

import (
	"encoding/json"
	"io"
)

// Chrome trace-event export (the "Trace Event Format" consumed by Perfetto
// and chrome://tracing). The simulated cluster maps onto the format as:
//
//   - pid 0               the coordinator/driver, wall-clock spans (planning)
//   - pid 1+n             simulated node n; its spans carry simulated time
//   - transfer spans      one complete ("X") event on the sender's "send"
//     thread and one on the receiver's "recv" thread, connected by a
//     flow-event pair ("s"/"f") so Perfetto draws the arrow between nodes
//
// Timestamps are microseconds: wall microseconds since the trace epoch for
// pid 0, simulated microseconds for the nodes.

// chromeEvent is one trace-event-format record.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	ID   int            `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

const (
	tidMain = 0
	tidSend = 1
	tidRecv = 2
)

// WriteChrome emits the trace in Chrome trace-event JSON.
func (t *Trace) WriteChrome(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, `{"traceEvents":[],"displayTimeUnit":"ms"}`)
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()

	var events []chromeEvent
	maxNode := -1
	flowID := 0

	var emit func(s *Span)
	emit = func(s *Span) {
		_, args := attrMap(s.Attrs)
		fromV, fromOK := args["from"].(float64)
		toV, toOK := args["to"].(float64)
		switch {
		case s.Sim && args["transfer"] == 1.0 && fromOK && toOK:
			// Transfer: send-side slice, recv-side slice, flow arrow.
			from, to := int(fromV), int(toV)
			if from > maxNode {
				maxNode = from
			}
			if to > maxNode {
				maxNode = to
			}
			flowID++
			dur := (s.SimEnd - s.SimStart) * 1e6
			events = append(events,
				chromeEvent{Name: s.Name, Ph: "X", Pid: 1 + from, Tid: tidSend, Ts: s.SimStart * 1e6, Dur: &dur, Args: args},
				chromeEvent{Name: s.Name, Ph: "X", Pid: 1 + to, Tid: tidRecv, Ts: s.SimStart * 1e6, Dur: &dur, Args: args},
				chromeEvent{Name: s.Name, Ph: "s", Pid: 1 + from, Tid: tidSend, Ts: s.SimStart * 1e6, ID: flowID},
				chromeEvent{Name: s.Name, Ph: "f", BP: "e", Pid: 1 + to, Tid: tidRecv, Ts: s.SimEnd * 1e6, ID: flowID},
			)
		case s.Sim:
			pid := 0
			if s.Node >= 0 {
				pid = 1 + s.Node
				if s.Node > maxNode {
					maxNode = s.Node
				}
			}
			dur := (s.SimEnd - s.SimStart) * 1e6
			events = append(events, chromeEvent{
				Name: s.Name, Ph: "X", Pid: pid, Tid: tidMain,
				Ts: s.SimStart * 1e6, Dur: &dur, Args: args,
			})
		default:
			dur := (s.wallEnd - s.wallStart) * 1e6
			events = append(events, chromeEvent{
				Name: s.Name, Ph: "X", Pid: 0, Tid: tidMain,
				Ts: s.wallStart * 1e6, Dur: &dur, Args: args,
			})
		}
		for _, c := range s.Children {
			emit(c)
		}
	}
	emit(t.root)

	meta := func(pid, tid int, key, name string) chromeEvent {
		return chromeEvent{Name: key, Ph: "M", Pid: pid, Tid: tid, Args: map[string]any{"name": name}}
	}
	all := []chromeEvent{meta(0, tidMain, "process_name", "coordinator (wall clock)")}
	for n := 0; n <= maxNode; n++ {
		all = append(all,
			meta(1+n, tidMain, "process_name", "node "+itoa(n)+" (simulated)"),
			meta(1+n, tidMain, "thread_name", "execute"),
			meta(1+n, tidSend, "thread_name", "send"),
			meta(1+n, tidRecv, "thread_name", "recv"),
		)
	}
	all = append(all, events...)

	return json.NewEncoder(w).Encode(chromeFile{TraceEvents: all, DisplayTimeUnit: "ms"})
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
