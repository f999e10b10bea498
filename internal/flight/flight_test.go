package flight

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"unicode/utf8"
)

func TestRecordSnapshot(t *testing.T) {
	r := New(64)
	q := r.NextQID()
	lbl := r.Label("SELECT 1")
	r.Record(EvQueryStart, q, lbl, 0, 0, 0)
	r.Record(EvBudgetCharge, q, 4096, 4096, 0, 0)
	r.Record(EvQueryFinish, q, 42, F(1.5), 1000, 0)

	evs := r.Snapshot(0)
	if len(evs) != 3 {
		t.Fatalf("snapshot returned %d events, want 3", len(evs))
	}
	if evs[0].Type != EvQueryStart || evs[1].Type != EvBudgetCharge || evs[2].Type != EvQueryFinish {
		t.Fatalf("wrong event order: %v %v %v", evs[0].Type, evs[1].Type, evs[2].Type)
	}
	for i, e := range evs {
		if e.QID != q {
			t.Errorf("event %d qid = %d, want %d", i, e.QID, q)
		}
		if e.Seq != uint64(i) {
			t.Errorf("event %d seq = %d", i, e.Seq)
		}
	}
	if got := r.LabelName(evs[0].Args[0]); got != "SELECT 1" {
		t.Errorf("query label = %q", got)
	}
	if evs[2].Args[0] != 42 || Float(evs[2].Args[1]) != 1.5 {
		t.Errorf("finish args = %v", evs[2].Args)
	}
	if evs[0].Nanos > evs[1].Nanos || evs[1].Nanos > evs[2].Nanos {
		t.Errorf("timestamps not monotone: %d %d %d", evs[0].Nanos, evs[1].Nanos, evs[2].Nanos)
	}

	// A bounded snapshot returns the most recent events.
	last := r.Snapshot(2)
	if len(last) != 2 || last[0].Type != EvBudgetCharge || last[1].Type != EvQueryFinish {
		t.Fatalf("bounded snapshot wrong: %+v", last)
	}
}

func TestWrapKeepsMostRecent(t *testing.T) {
	r := New(16) // power of two already
	for i := 0; i < 100; i++ {
		r.Record(EvBudgetCharge, 1, int64(i), 0, 0, 0)
	}
	evs := r.Snapshot(0)
	if len(evs) != 16 {
		t.Fatalf("retained %d events, want 16", len(evs))
	}
	for i, e := range evs {
		if want := int64(84 + i); e.Args[0] != want {
			t.Errorf("event %d arg = %d, want %d", i, e.Args[0], want)
		}
	}
	if st := r.Stats(); st.Recorded != 100 || st.Capacity != 16 {
		t.Errorf("stats = %+v", st)
	}
}

func TestCapacityRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{{0, 16}, {1, 16}, {16, 16}, {17, 32}, {8192, 8192}} {
		if got := New(tc.in).Stats().Capacity; got != tc.want {
			t.Errorf("New(%d) capacity = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestLabels(t *testing.T) {
	r := New(16)
	a := r.Label("align")
	if a == 0 {
		t.Fatal("label id should be nonzero")
	}
	if r.Label("align") != a {
		t.Error("re-interning returned a different id")
	}
	if r.Label("") != 0 {
		t.Error("empty label should be id 0")
	}
	if r.LabelName(0) != "" || r.LabelName(9999) != "" {
		t.Error("unknown label ids should render empty")
	}
	// The table is bounded: once full, new labels collapse to 0.
	for i := 0; i < 2*maxLabels; i++ {
		r.Label(string(rune('a')) + string(rune(i)))
	}
	if got := r.Label("one-more"); got != 0 {
		t.Errorf("over-cap label id = %d, want 0", got)
	}
	if r.Label("align") != a {
		t.Error("existing labels must survive table overflow")
	}
}

// TestLabelsCapped pins the per-label byte cap: two 1 MiB labels that
// share a long prefix intern to one id, the stored name stays within
// maxLabelBytes, and the cut never splits a multi-byte rune.
func TestLabelsCapped(t *testing.T) {
	r := New(16)
	// "é" is two bytes; an odd-length ASCII lead puts a rune across the cap.
	prefix := "x" + strings.Repeat("é", maxLabelBytes)
	a := r.Label(prefix + strings.Repeat("a", 1<<20))
	b := r.Label(prefix + strings.Repeat("b", 1<<20))
	if a == 0 || a != b {
		t.Fatalf("labels with a common %d-byte prefix got ids %d and %d, want one nonzero id", maxLabelBytes, a, b)
	}
	name := r.LabelName(a)
	if len(name) > maxLabelBytes || len(name) < maxLabelBytes-utf8.UTFMax || !utf8.ValidString(name) || !strings.HasPrefix(prefix, name) {
		t.Fatalf("stored label is %d bytes (valid UTF-8: %v), want a rune-aligned prefix within %d bytes",
			len(name), utf8.ValidString(name), maxLabelBytes)
	}
	if r.Label(name) != a {
		t.Error("the stored prefix should intern to the same id")
	}
}

func TestNilRecorder(t *testing.T) {
	var r *Recorder
	r.Record(EvQueryStart, 1, 2, 3, 4, 5) // must not panic
	if r.Snapshot(0) != nil {
		t.Error("nil snapshot should be nil")
	}
	if r.NextQID() != 0 || r.Label("x") != 0 || r.LabelName(1) != "" {
		t.Error("nil recorder ids should be 0")
	}
	if st := r.Stats(); st != (Stats{}) {
		t.Errorf("nil stats = %+v", st)
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf, 10); err != nil {
		t.Fatalf("nil WriteJSON: %v", err)
	}
}

// TestConcurrentRecordSnapshot hammers the ring from several writers
// while readers snapshot continuously: under -race this proves the
// seqlock protocol is data-race free, and the payload invariant
// (a1 == a0+1 for every accepted event) proves snapshots never return
// torn reads.
func TestConcurrentRecordSnapshot(t *testing.T) {
	r := New(128)
	const writers = 4
	const perWriter = 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				v := int64(w*perWriter + i)
				r.Record(EvBudgetCharge, uint32(w), v, v+1, -v, v%7)
			}
		}(w)
	}
	var readErr error
	var rg sync.WaitGroup
	for g := 0; g < 2; g++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, e := range r.Snapshot(0) {
					if e.Type != EvBudgetCharge || e.Args[1] != e.Args[0]+1 || e.Args[2] != -e.Args[0] {
						readErr = &tornRead{e}
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	rg.Wait()
	if readErr != nil {
		t.Fatal(readErr)
	}
	if st := r.Stats(); st.Recorded != writers*perWriter {
		t.Errorf("recorded %d, want %d", st.Recorded, writers*perWriter)
	}
}

type tornRead struct{ e Event }

func (t *tornRead) Error() string { return "torn read: inconsistent event payload" }

func TestDecodeAndWriteJSON(t *testing.T) {
	r := New(32)
	q := r.NextQID()
	r.Record(EvQueryStart, q, r.Label("q1"), 0, 0, 0)
	r.Record(EvStageFinish, q, r.Label("align"), 12, F(0.25), 0)
	r.Record(EvSchedReject, 0, r.Label("scan"), 1500, r.Label("deadline"), 0)

	d := r.Decode(r.Snapshot(0)[1])
	if d.Type != "stage-finish" {
		t.Fatalf("type = %q", d.Type)
	}
	if d.Args["stage"] != "align" || d.Args["wall_ns"] != int64(12) || d.Args["sim_seconds"] != 0.25 {
		t.Errorf("decoded args = %v", d.Args)
	}

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf, 0); err != nil {
		t.Fatal(err)
	}
	var payload struct {
		Capacity int `json:"capacity"`
		Events   []struct {
			Type string         `json:"type"`
			Args map[string]any `json:"args"`
		} `json:"events"`
	}
	if err := json.Unmarshal(buf.Bytes(), &payload); err != nil {
		t.Fatalf("WriteJSON output is not JSON: %v", err)
	}
	if payload.Capacity != 32 || len(payload.Events) != 3 {
		t.Fatalf("payload = %+v", payload)
	}
	if ev := payload.Events[2]; ev.Type != "sched-reject" || ev.Args["class"] != "scan" || ev.Args["reason"] != "deadline" {
		t.Errorf("sched-reject event = %+v", ev)
	}
}

func TestEventTypeNames(t *testing.T) {
	// Every declared type must have a decode schema (guards against
	// adding a type and forgetting the table entry).
	for ty := EvQueryStart; ty < numTypes; ty++ {
		if ty.String() == "unknown" || ty.String() == "" {
			t.Errorf("event type %d has no schema name", ty)
		}
	}
	if Type(200).String() != "unknown" {
		t.Error("out-of-range type should render unknown")
	}
}
