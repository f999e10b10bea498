// Package obshttp is the engine's live telemetry endpoint: an HTTP
// surface over the observability layer that serves
//
//	/metrics          — the metrics registry in Prometheus text format,
//	                    followed by the hub's own uptime gauge
//	/debug/queries    — a ring-buffer query log with EXPLAIN ANALYZE
//	                    profiles and a configurable slow-query threshold
//	/debug/inflight   — per-stage progress of currently running queries
//	/debug/flight     — recent flight-recorder events, decoded to JSON
//	/debug/status     — build/runtime identification and engine config
//	/debug/pprof/...  — the standard net/http/pprof profiles
//
// The Hub at the center implements pipeline.QueryHooks: attach it to a
// query's Options.Hooks (the facade's WithQueryLog does this) and every
// execution registers its live Progress tracker on start and appends its
// Report's profile to the query log on finish. Each profile states its
// own query's skew, straggler node and hot units; the hub adds no
// cross-query verdicts. The Hub is safe for concurrent queries and
// concurrent HTTP reads; it never blocks the orchestration goroutine
// beyond a mutex-guarded ring append.
package obshttp

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	rtdebug "runtime/debug"
	"sort"
	"strconv"
	"sync"
	"time"

	"shufflejoin/internal/flight"
	"shufflejoin/internal/obs"
	"shufflejoin/internal/pipeline"
	"shufflejoin/internal/sched"
)

// StatusInfo identifies the process on /debug/status.
type StatusInfo struct {
	// Component names the serving binary ("shufflejoin", "expdriver", a
	// test harness...).
	Component string `json:"component,omitempty"`
	// Details carries free-form engine configuration (node count,
	// planner, scheduling mode...) for the status page.
	Details map[string]string `json:"details,omitempty"`
}

// Config parameterizes a Hub.
type Config struct {
	// Registry backs /metrics. Typically the DB's cumulative registry or
	// an experiment driver's shared metrics registry. A nil registry
	// serves an empty exposition.
	Registry *obs.Registry
	// SlowQuery marks query-log entries whose wall time reaches the
	// threshold as slow (Entry.Slow, and the slow_queries counter in the
	// /debug/queries header). Zero disables slow marking.
	SlowQuery time.Duration
	// Status identifies the process on /debug/status.
	Status StatusInfo
	// Sched, when non-nil, annotates /debug/inflight and /debug/status
	// with the query scheduler's admission state (queue depths per class,
	// memory-pool usage).
	Sched *sched.Scheduler
}

// Hub collects live telemetry and serves it over HTTP. Create with
// NewHub, attach to queries via pipeline Options.Hooks, and expose with
// Serve (or mount Handler on an existing mux).
type Hub struct {
	cfg   Config
	log   *QueryLog
	start time.Time
	// engine holds the hub's own operational metrics (uptime), kept out
	// of cfg.Registry, which holds only what queries folded into it.
	// /metrics serves both.
	engine *obs.Registry

	mu       sync.Mutex
	seq      uint64
	inflight map[*pipeline.Progress]uint64

	srvMu sync.Mutex
	srv   *http.Server
	ln    net.Listener
}

// NewHub returns a Hub with the given configuration.
func NewHub(cfg Config) *Hub {
	h := &Hub{
		cfg:      cfg,
		log:      &QueryLog{},
		start:    time.Now(),
		engine:   obs.NewRegistry(),
		inflight: make(map[*pipeline.Progress]uint64),
	}
	return h
}

// Log returns the hub's query log.
func (h *Hub) Log() *QueryLog { return h.log }

// QueryStarted implements pipeline.QueryHooks: the query's Progress
// tracker becomes visible on /debug/inflight.
func (h *Hub) QueryStarted(p *pipeline.Progress) {
	h.mu.Lock()
	h.seq++
	h.inflight[p] = h.seq
	h.mu.Unlock()
}

// QueryFinished implements pipeline.QueryHooks: the query leaves
// /debug/inflight and its profile is appended to the query log.
func (h *Hub) QueryFinished(p *pipeline.Progress, rep *pipeline.Report, err error) {
	h.mu.Lock()
	id := h.inflight[p]
	delete(h.inflight, p)
	h.mu.Unlock()

	snap := p.Snapshot()
	e := Entry{
		Seq:         id,
		Start:       snap.Start,
		WallSeconds: snap.ElapsedSeconds,
		Slow:        h.cfg.SlowQuery > 0 && snap.ElapsedSeconds >= h.cfg.SlowQuery.Seconds(),
	}
	if err != nil {
		e.Error = err.Error()
	}
	if rep != nil {
		e.Profile = rep.Profile()
	}
	h.log.add(e)
}

// Entry is one finished query in the /debug/queries log: the query's
// profile (label, plan, timings, totals, skew) plus what only the hub
// knows about it.
type Entry struct {
	Seq         uint64            `json:"seq"`
	Start       time.Time         `json:"start"`
	WallSeconds float64           `json:"wall_seconds"`
	Slow        bool              `json:"slow"`
	Error       string            `json:"error,omitempty"`
	Profile     *pipeline.Profile `json:"profile,omitempty"`
}

// queryLogCapacity bounds the /debug/queries ring buffer; once full,
// the oldest entry is evicted.
const queryLogCapacity = 128

// QueryLog is a fixed-capacity ring buffer of finished queries.
type QueryLog struct {
	mu      sync.Mutex
	entries []Entry
	next    int
	total   uint64
	slow    uint64
}

func (l *QueryLog) add(e Entry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.total++
	if e.Slow {
		l.slow++
	}
	if len(l.entries) < queryLogCapacity {
		l.entries = append(l.entries, e)
		return
	}
	l.entries[l.next] = e
	l.next = (l.next + 1) % queryLogCapacity
}

// Entries returns the retained entries, oldest first.
func (l *QueryLog) Entries() []Entry {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Entry, 0, len(l.entries))
	out = append(out, l.entries[l.next:]...)
	out = append(out, l.entries[:l.next]...)
	return out
}

// Total returns the number of queries ever logged.
func (l *QueryLog) Total() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Slow returns the number of queries marked slow.
func (l *QueryLog) Slow() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.slow
}

// Handler returns the hub's HTTP mux: /metrics, the /debug endpoints,
// and the standard pprof profiles under /debug/pprof/.
func (h *Hub) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", h.handleMetrics)
	mux.HandleFunc("/debug/queries", h.handleQueries)
	mux.HandleFunc("/debug/inflight", h.handleInflight)
	mux.HandleFunc("/debug/flight", h.handleFlight)
	mux.HandleFunc("/debug/status", h.handleStatus)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// boolParam parses a 0/1 query parameter; a malformed value is a 400.
func boolParam(w http.ResponseWriter, r *http.Request, name string) (value, ok bool) {
	switch r.URL.Query().Get(name) {
	case "", "0":
		return false, true
	case "1":
		return true, true
	default:
		http.Error(w, fmt.Sprintf("obshttp: query parameter %q must be 0 or 1", name), http.StatusBadRequest)
		return false, false
	}
}

// intParam parses a non-negative integer query parameter with a
// default; a malformed or negative value is a 400.
func intParam(w http.ResponseWriter, r *http.Request, name string, def int) (value int, ok bool) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return def, true
	}
	n, err := strconv.Atoi(raw)
	if err != nil || n < 0 {
		http.Error(w, fmt.Sprintf("obshttp: query parameter %q must be a non-negative integer", name), http.StatusBadRequest)
		return 0, false
	}
	return n, true
}

func (h *Hub) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	h.engine.Gauge("engine_uptime_seconds").Set(time.Since(h.start).Seconds())
	if err := h.cfg.Registry.WritePrometheus(w); err != nil {
		// Headers are sent; nothing to do beyond dropping the connection.
		return
	}
	h.engine.WritePrometheus(w) //nolint:errcheck // same: headers already sent
}

// queriesPayload is the /debug/queries response shape.
type queriesPayload struct {
	Total       uint64  `json:"total"`
	SlowQueries uint64  `json:"slow_queries"`
	Capacity    int     `json:"capacity"`
	SlowMs      float64 `json:"slow_threshold_ms"`
	Queries     []Entry `json:"queries"`
}

func (h *Hub) handleQueries(w http.ResponseWriter, r *http.Request) {
	slowOnly, ok := boolParam(w, r, "slow")
	if !ok {
		return
	}
	limit, ok := intParam(w, r, "limit", 0)
	if !ok {
		return
	}
	entries := h.log.Entries()
	// Newest first: the interesting queries are the recent ones.
	for i, j := 0, len(entries)-1; i < j; i, j = i+1, j-1 {
		entries[i], entries[j] = entries[j], entries[i]
	}
	if slowOnly {
		kept := entries[:0]
		for _, e := range entries {
			if e.Slow {
				kept = append(kept, e)
			}
		}
		entries = kept
	}
	if limit > 0 && len(entries) > limit {
		entries = entries[:limit]
	}
	writeJSON(w, queriesPayload{
		Total:       h.log.Total(),
		SlowQueries: h.log.Slow(),
		Capacity:    queryLogCapacity,
		SlowMs:      h.cfg.SlowQuery.Seconds() * 1000,
		Queries:     entries,
	})
}

// inflightEntry is one running query in the /debug/inflight response.
type inflightEntry struct {
	ID uint64 `json:"id"`
	pipeline.ProgressSnapshot
}

func (h *Hub) handleInflight(w http.ResponseWriter, _ *http.Request) {
	h.mu.Lock()
	running := make([]inflightEntry, 0, len(h.inflight))
	for p, id := range h.inflight {
		running = append(running, inflightEntry{ID: id, ProgressSnapshot: p.Snapshot()})
	}
	h.mu.Unlock()
	sort.Slice(running, func(i, j int) bool { return running[i].ID < running[j].ID })
	payload := struct {
		Running   []inflightEntry `json:"running"`
		Scheduler *sched.Snapshot `json:"scheduler,omitempty"`
	}{Running: running}
	if h.cfg.Sched != nil {
		snap := h.cfg.Sched.Snapshot()
		payload.Scheduler = &snap
	}
	writeJSON(w, payload)
}

// handleFlight serves the flight recorder's recent events, decoded.
// ?limit=N bounds the dump (default 256, 0 = everything retained).
func (h *Hub) handleFlight(w http.ResponseWriter, r *http.Request) {
	limit, ok := intParam(w, r, "limit", 256)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	flight.Default.WriteJSON(w, limit) //nolint:errcheck // headers already sent
}

// statusPayload is the /debug/status response shape.
type statusPayload struct {
	StatusInfo
	GoVersion     string          `json:"go_version"`
	GoOSArch      string          `json:"go_os_arch"`
	Module        string          `json:"module,omitempty"`
	VCSRevision   string          `json:"vcs_revision,omitempty"`
	GOMAXPROCS    int             `json:"gomaxprocs"`
	Goroutines    int             `json:"goroutines"`
	Start         time.Time       `json:"start"`
	UptimeSeconds float64         `json:"uptime_seconds"`
	SlowMs        float64         `json:"slow_threshold_ms"`
	LogCapacity   int             `json:"query_log_capacity"`
	QueriesTotal  uint64          `json:"queries_total"`
	QueriesSlow   uint64          `json:"queries_slow"`
	Inflight      int             `json:"inflight"`
	Flight        flight.Stats    `json:"flight"`
	Scheduler     *sched.Snapshot `json:"scheduler,omitempty"`
}

func (h *Hub) handleStatus(w http.ResponseWriter, _ *http.Request) {
	h.mu.Lock()
	inflight := len(h.inflight)
	h.mu.Unlock()
	p := statusPayload{
		StatusInfo:    h.cfg.Status,
		GoVersion:     runtime.Version(),
		GoOSArch:      runtime.GOOS + "/" + runtime.GOARCH,
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Goroutines:    runtime.NumGoroutine(),
		Start:         h.start,
		UptimeSeconds: time.Since(h.start).Seconds(),
		SlowMs:        h.cfg.SlowQuery.Seconds() * 1000,
		LogCapacity:   queryLogCapacity,
		QueriesTotal:  h.log.Total(),
		QueriesSlow:   h.log.Slow(),
		Inflight:      inflight,
		Flight:        flight.Default.Stats(),
	}
	if h.cfg.Sched != nil {
		snap := h.cfg.Sched.Snapshot()
		p.Scheduler = &snap
	}
	if bi, ok := rtdebug.ReadBuildInfo(); ok {
		p.Module = bi.Main.Path
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				p.VCSRevision = s.Value
			}
		}
	}
	writeJSON(w, p)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// Serve binds addr (host:port; ":0" picks a free port) and serves the
// hub's handler in a background goroutine until Close. It returns the
// bound address.
func (h *Hub) Serve(addr string) (string, error) {
	h.srvMu.Lock()
	defer h.srvMu.Unlock()
	if h.ln != nil {
		return "", fmt.Errorf("obshttp: hub already serving on %s", h.ln.Addr())
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("obshttp: %w", err)
	}
	h.ln = ln
	h.srv = &http.Server{Handler: h.Handler()}
	go h.srv.Serve(ln) //nolint:errcheck // Serve always returns on Close
	return ln.Addr().String(), nil
}

// Close stops the HTTP listener, if Serve was called.
func (h *Hub) Close() error {
	h.srvMu.Lock()
	defer h.srvMu.Unlock()
	if h.srv == nil {
		return nil
	}
	err := h.srv.Close()
	h.srv, h.ln = nil, nil
	return err
}
