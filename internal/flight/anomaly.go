package flight

import (
	"fmt"
	"sync"
	"time"
)

// The online anomaly detector's tuning.
const (
	// detectorAlpha is the EWMA smoothing factor applied to each node's
	// per-query compare seconds and received cells.
	detectorAlpha = 0.3
	// detectorFactor flags a node when its EWMA exceeds this many times
	// the mean of the other nodes' EWMAs.
	detectorFactor = 2.0
	// detectorWarmup is how many queries must be observed before any node
	// is flagged — EWMAs are meaningless on the first few samples.
	detectorWarmup = 3
	// detectorHistory bounds the retained anomaly ring.
	detectorHistory = 64
)

// Anomaly is one detected runtime condition: a straggler node, a hot
// receiver, or a hot join unit.
type Anomaly struct {
	Seq      uint64    `json:"seq"`
	Time     time.Time `json:"time"`
	Kind     string    `json:"kind"` // "straggler-compare", "hot-receiver", "hot-unit"
	Query    string    `json:"query,omitempty"`
	Node     int       `json:"node"` // -1 for unit anomalies
	Unit     int       `json:"unit"` // -1 for node anomalies
	Value    float64   `json:"value"`
	Baseline float64   `json:"baseline"`
}

// String renders the anomaly as a one-line annotation.
func (a Anomaly) String() string {
	switch a.Kind {
	case "hot-unit":
		return fmt.Sprintf("hot-unit: unit %d holds %.0f cells (%.1fx the mean %.0f)",
			a.Unit, a.Value, a.Value/nonzero(a.Baseline), a.Baseline)
	case "hot-receiver":
		return fmt.Sprintf("hot-receiver: node %d recv EWMA %.0f cells (%.1fx the peer mean %.0f)",
			a.Node, a.Value, a.Value/nonzero(a.Baseline), a.Baseline)
	default:
		return fmt.Sprintf("%s: node %d EWMA %.4gs (%.1fx the peer mean %.4gs)",
			a.Kind, a.Node, a.Value, a.Value/nonzero(a.Baseline), a.Baseline)
	}
}

func nonzero(v float64) float64 {
	if v == 0 {
		return 1
	}
	return v
}

// NodeState is one node's detector state in a DetectorSnapshot.
type NodeState struct {
	Node           int     `json:"node"`
	CompareEWMA    float64 `json:"compare_ewma_seconds"`
	RecvEWMA       float64 `json:"recv_ewma_cells"`
	StragglerSince int64   `json:"straggler_since,omitempty"` // query ordinal of the rising edge, 0 when unflagged
	HotSince       int64   `json:"hot_receiver_since,omitempty"`
}

// DetectorSnapshot is the /debug/anomalies payload.
type DetectorSnapshot struct {
	Queries  int64       `json:"queries"`
	Total    uint64      `json:"anomalies_total"`
	Flagged  int         `json:"flagged_nodes"`
	Nodes    []NodeState `json:"nodes"`
	Recent   []Anomaly   `json:"recent"`
	Warmup   int         `json:"warmup"`
	Factor   float64     `json:"factor"`
	Alpha    float64     `json:"alpha"`
	Capacity int         `json:"history_capacity"`
}

// Detector watches finished queries and flags skew anomalies online: it
// maintains per-node EWMAs of modeled compare seconds and received
// cells, raises a rising-edge anomaly when a node's EWMA crosses
// detectorFactor times its peers' mean (and clears the flag when it
// recedes), and reports per-query hot join units. Anomalies are retained in a bounded
// ring for /debug/anomalies and, when a Recorder is attached, recorded
// as EvAnomaly flight events. Safe for concurrent use.
type Detector struct {
	rec *Recorder // optional: anomalies double as flight events

	mu      sync.Mutex
	queries int64
	nodes   []nodeState
	ring    []Anomaly
	next    int
	total   uint64
}

type nodeState struct {
	compareEWMA    float64
	recvEWMA       float64
	seeded         bool
	stragglerSince int64
	hotSince       int64
}

// NewDetector returns a detector recording its anomalies into rec
// (which may be nil).
func NewDetector(rec *Recorder) *Detector {
	return &Detector{rec: rec}
}

// Observe folds one finished query into the detector: compareSeconds
// and recvCells are per-node (from the query's report), unitCells the
// per-join-unit cell totals. It returns the anomalies this query newly
// raised (rising edges for node anomalies; hot units are per-query).
// A nil detector observes nothing.
func (d *Detector) Observe(query string, compareSeconds []float64, recvCells []int64, unitCells []int64) []Anomaly {
	if d == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.queries++
	k := len(compareSeconds)
	if len(recvCells) > k {
		k = len(recvCells)
	}
	for len(d.nodes) < k {
		d.nodes = append(d.nodes, nodeState{})
	}
	const a = detectorAlpha
	for n := range d.nodes {
		var cs, rc float64
		if n < len(compareSeconds) {
			cs = compareSeconds[n]
		}
		if n < len(recvCells) {
			rc = float64(recvCells[n])
		}
		st := &d.nodes[n]
		if !st.seeded {
			st.compareEWMA, st.recvEWMA, st.seeded = cs, rc, true
			continue
		}
		st.compareEWMA += a * (cs - st.compareEWMA)
		st.recvEWMA += a * (rc - st.recvEWMA)
	}

	var raised []Anomaly
	if d.queries >= detectorWarmup && len(d.nodes) > 1 {
		raised = append(raised, d.flagNodes(query, "straggler-compare",
			func(st *nodeState) float64 { return st.compareEWMA },
			func(st *nodeState) *int64 { return &st.stragglerSince })...)
		raised = append(raised, d.flagNodes(query, "hot-receiver",
			func(st *nodeState) float64 { return st.recvEWMA },
			func(st *nodeState) *int64 { return &st.hotSince })...)
	}
	for _, hu := range HotUnits(unitCells) {
		an := Anomaly{
			Time:  time.Now(),
			Kind:  "hot-unit",
			Query: query,
			Node:  -1,
			Unit:  hu.Unit,
			Value: float64(hu.Cells), Baseline: hu.Mean,
		}
		raised = append(raised, d.push(an))
	}
	return raised
}

// flagNodes runs one EWMA rule over every node: flag rising edges,
// clear flags that receded, and return the newly raised anomalies.
func (d *Detector) flagNodes(query, kind string, value func(*nodeState) float64, since func(*nodeState) *int64) []Anomaly {
	var sum float64
	for i := range d.nodes {
		sum += value(&d.nodes[i])
	}
	var raised []Anomaly
	for i := range d.nodes {
		st := &d.nodes[i]
		v := value(st)
		peers := (sum - v) / float64(len(d.nodes)-1)
		flagged := peers > 0 && v > detectorFactor*peers
		s := since(st)
		switch {
		case flagged && *s == 0:
			*s = d.queries
			raised = append(raised, d.push(Anomaly{
				Time: time.Now(), Kind: kind, Query: query,
				Node: i, Unit: -1, Value: v, Baseline: peers,
			}))
		case !flagged && *s != 0:
			*s = 0
		}
	}
	return raised
}

// push appends an anomaly to the ring (and the flight recorder),
// assigning its sequence number. Caller holds d.mu.
func (d *Detector) push(a Anomaly) Anomaly {
	d.total++
	a.Seq = d.total
	if len(d.ring) < detectorHistory {
		d.ring = append(d.ring, a)
	} else {
		d.ring[d.next] = a
		d.next = (d.next + 1) % detectorHistory
	}
	node := int64(a.Node)
	if a.Node < 0 {
		node = int64(a.Unit)
	}
	d.rec.Record(EvAnomaly, 0, d.rec.Label(a.Kind), node, F(a.Value), F(a.Baseline))
	return a
}

// Snapshot returns the detector's current state: per-node EWMAs and
// flags, cumulative totals, and the retained anomalies newest first.
func (d *Detector) Snapshot() DetectorSnapshot {
	if d == nil {
		return DetectorSnapshot{}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	snap := DetectorSnapshot{
		Queries:  d.queries,
		Total:    d.total,
		Warmup:   detectorWarmup,
		Factor:   detectorFactor,
		Alpha:    detectorAlpha,
		Capacity: detectorHistory,
	}
	for i := range d.nodes {
		st := &d.nodes[i]
		if st.stragglerSince != 0 || st.hotSince != 0 {
			snap.Flagged++
		}
		snap.Nodes = append(snap.Nodes, NodeState{
			Node:           i,
			CompareEWMA:    st.compareEWMA,
			RecvEWMA:       st.recvEWMA,
			StragglerSince: st.stragglerSince,
			HotSince:       st.hotSince,
		})
	}
	// Oldest-first ring order, then reverse to newest-first.
	ring := append(append([]Anomaly(nil), d.ring[d.next:]...), d.ring[:d.next]...)
	for i, j := 0, len(ring)-1; i < j; i, j = i+1, j-1 {
		ring[i], ring[j] = ring[j], ring[i]
	}
	snap.Recent = ring
	return snap
}

// Flagged returns the nodes currently flagged by either EWMA rule and
// the most recently flagged straggler node (-1 when none is flagged).
func (d *Detector) Flagged() (nodes int, straggler int) {
	straggler = -1
	if d == nil {
		return 0, -1
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	var latest int64
	for i := range d.nodes {
		st := &d.nodes[i]
		if st.stragglerSince != 0 || st.hotSince != 0 {
			nodes++
		}
		if st.stragglerSince > latest {
			latest, straggler = st.stragglerSince, i
		}
	}
	return nodes, straggler
}

// HotUnit is one join unit whose cell count dominates its peers.
type HotUnit struct {
	Unit  int     `json:"unit"`
	Cells int64   `json:"cells"`
	Mean  float64 `json:"mean_cells"`
}

// A unit is hot when it holds more than hotUnitFactor times the mean
// unit cells and at least hotUnitMinCells; at most maxHotUnits units are
// reported, largest first.
const (
	hotUnitFactor   = 4.0
	hotUnitMinCells = 256
	maxHotUnits     = 4
)

// HotUnits scans per-unit cell totals for units that dominate the mean.
// The result is ordered largest first and is fully deterministic, so
// callers may fold it into fingerprinted profiles.
func HotUnits(unitCells []int64) []HotUnit {
	if len(unitCells) == 0 {
		return nil
	}
	var total int64
	for _, c := range unitCells {
		total += c
	}
	mean := float64(total) / float64(len(unitCells))
	var hot []HotUnit
	for u, c := range unitCells {
		if c >= hotUnitMinCells && float64(c) > hotUnitFactor*mean {
			hot = append(hot, HotUnit{Unit: u, Cells: c, Mean: mean})
		}
	}
	// Largest first; ties by unit id ascending (stable and deterministic).
	for i := 1; i < len(hot); i++ {
		for j := i; j > 0 && (hot[j].Cells > hot[j-1].Cells ||
			(hot[j].Cells == hot[j-1].Cells && hot[j].Unit < hot[j-1].Unit)); j-- {
			hot[j], hot[j-1] = hot[j-1], hot[j]
		}
	}
	if len(hot) > maxHotUnits {
		hot = hot[:maxHotUnits]
	}
	return hot
}
