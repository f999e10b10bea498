package batch

import "sync"

// Intern is a query-shared string dictionary: every distinct string
// value that flows through the streaming data plane is stored once and
// referenced by a dense uint32 code. Batches store the codes; decoding
// returns the canonical string, so downstream value comparisons see
// exactly the contents the source chunks held.
//
// Concurrent producers may assign different codes to the same string
// set depending on interleaving — codes are private to one query and
// never compared across tables — but the decoded strings and the
// distinct count are deterministic.
type Intern struct {
	mu   sync.RWMutex
	ids  map[string]uint32
	strs []string
}

// NewIntern returns an empty dictionary.
func NewIntern() *Intern {
	return &Intern{ids: make(map[string]uint32)}
}

// ID returns the code for s, interning it on first sight.
func (in *Intern) ID(s string) uint32 {
	in.mu.RLock()
	id, ok := in.ids[s]
	in.mu.RUnlock()
	if ok {
		return id
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if id, ok := in.ids[s]; ok {
		return id
	}
	id = uint32(len(in.strs))
	in.strs = append(in.strs, s)
	in.ids[s] = id
	return id
}

// Str returns the canonical string for a code previously returned by ID.
func (in *Intern) Str(id uint32) string {
	in.mu.RLock()
	s := in.strs[id]
	in.mu.RUnlock()
	return s
}

// Count returns the number of distinct interned strings.
func (in *Intern) Count() int {
	in.mu.RLock()
	n := len(in.strs)
	in.mu.RUnlock()
	return n
}
