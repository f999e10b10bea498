package flight

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"
)

// Postmortem writes diagnostic bundles: when a query panics, fails a
// strict budget/bounds check, or breaches the slow-query threshold, the
// engine captures a directory of evidence —
//
//	meta.json      reason, capture time, Go runtime identification
//	flight.json    the last 1024 entries of the Default ring
//	<section>.json every caller-supplied section (profile, progress,
//	               report digest, panic value + stack, ...)
//	metrics.prom   a metrics snapshot, when a Metrics writer is attached
//	goroutines.txt full goroutine stacks
//	heap.pprof     a heap profile
//
// — so a failure ships its own investigation. A Postmortem writes at
// most 16 bundles, so a crash loop cannot fill the disk. A nil
// *Postmortem captures nothing. See DESIGN.md §12.
type Postmortem struct {
	// Dir is the directory bundles are created under (one subdirectory
	// per capture). Created on first use.
	Dir string
	// SlowQuery, when positive, makes the pipeline capture a bundle for
	// any query whose wall time reaches the threshold.
	SlowQuery time.Duration
	// Metrics, when non-nil, writes a metrics snapshot into the bundle
	// (typically Registry.WritePrometheus).
	Metrics func(io.Writer) error

	mu  sync.Mutex
	seq int
	n   int
}

// Section is one named JSON document in a bundle.
type Section struct {
	Name  string
	Value any
}

const (
	bundleEvents = 1024 // flight events per bundle
	maxBundles   = 16   // captures over a Postmortem's lifetime
)

// ErrBundleCap reports a capture skipped by the bundle cap.
var ErrBundleCap = fmt.Errorf("flight: postmortem bundle cap reached")

// Capture writes one bundle and returns its directory. reason becomes
// part of the directory name and meta.json; sections are serialized as
// individual JSON files. Nil receivers and over-cap captures return
// ("", error) without touching the filesystem; file-level errors are
// collected into the returned error but never abort the remaining
// evidence (a postmortem should save what it can).
func (pm *Postmortem) Capture(reason string, sections ...Section) (string, error) {
	if pm == nil || pm.Dir == "" {
		return "", fmt.Errorf("flight: no postmortem directory configured")
	}
	pm.mu.Lock()
	if pm.n >= maxBundles {
		pm.mu.Unlock()
		return "", ErrBundleCap
	}
	pm.n++
	pm.seq++
	seq := pm.seq
	pm.mu.Unlock()

	now := time.Now()
	dir := filepath.Join(pm.Dir, fmt.Sprintf("pm-%s-%03d-%s",
		now.UTC().Format("20060102T150405"), seq, sanitize(reason)))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("flight: postmortem dir: %w", err)
	}

	var errs []error
	keep := func(name string, err error) {
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", name, err))
		}
	}

	keep("meta.json", writeJSONFile(filepath.Join(dir, "meta.json"), map[string]any{
		"reason":       reason,
		"time":         now,
		"bundle":       seq,
		"go_version":   runtime.Version(),
		"go_os_arch":   runtime.GOOS + "/" + runtime.GOARCH,
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"goroutines":   runtime.NumGoroutine(),
		"sections":     sectionNames(sections),
		"flight_stats": Default.Stats(),
	}))

	keep("flight.json", writeFile(filepath.Join(dir, "flight.json"), func(w io.Writer) error {
		return Default.WriteJSON(w, bundleEvents)
	}))

	for _, s := range sections {
		if s.Value == nil {
			continue
		}
		name := sanitize(s.Name) + ".json"
		keep(name, writeJSONFile(filepath.Join(dir, name), s.Value))
	}

	if pm.Metrics != nil {
		keep("metrics.prom", writeFile(filepath.Join(dir, "metrics.prom"), pm.Metrics))
	}

	keep("goroutines.txt", writeFile(filepath.Join(dir, "goroutines.txt"), func(w io.Writer) error {
		return pprof.Lookup("goroutine").WriteTo(w, 2)
	}))
	keep("heap.pprof", writeFile(filepath.Join(dir, "heap.pprof"), func(w io.Writer) error {
		return pprof.WriteHeapProfile(w)
	}))

	if len(errs) > 0 {
		return dir, fmt.Errorf("flight: postmortem bundle %s incomplete: %v", dir, errs)
	}
	return dir, nil
}

func sectionNames(sections []Section) []string {
	out := make([]string, 0, len(sections))
	for _, s := range sections {
		if s.Value != nil {
			out = append(out, s.Name)
		}
	}
	return out
}

// sanitize maps an arbitrary reason/section name onto a filesystem-safe
// slug.
func sanitize(s string) string {
	if s == "" {
		return "unnamed"
	}
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('-')
		}
	}
	out := b.String()
	if len(out) > 48 {
		out = out[:48]
	}
	return out
}

func writeFile(path string, fill func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fill(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeJSONFile(path string, v any) error {
	return writeFile(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	})
}

// EnvPostmortemDir is the environment variable that configures the
// process-default Postmortem (used by CI so failing test runs ship
// their own bundles as artifacts).
const EnvPostmortemDir = "SHUFFLEJOIN_POSTMORTEM_DIR"

var (
	pmMu      sync.Mutex
	pmInit    bool
	defaultPM *Postmortem
)

// DefaultPostmortem returns the process-default postmortem sink: the
// one installed with SetDefaultPostmortem, else one rooted at
// $SHUFFLEJOIN_POSTMORTEM_DIR (resolved once), else nil. It is the one
// sink the pipeline captures query bundles into.
func DefaultPostmortem() *Postmortem {
	pmMu.Lock()
	defer pmMu.Unlock()
	if !pmInit {
		pmInit = true
		if dir := os.Getenv(EnvPostmortemDir); dir != "" {
			defaultPM = &Postmortem{Dir: dir}
		}
	}
	return defaultPM
}

// SetDefaultPostmortem installs (or, with nil, clears) the
// process-default postmortem sink, overriding the environment variable.
func SetDefaultPostmortem(pm *Postmortem) {
	pmMu.Lock()
	defaultPM, pmInit = pm, true
	pmMu.Unlock()
}
