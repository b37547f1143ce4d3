package campaign

import (
	"container/list"
	"encoding/json"
	"fmt"
	"sync"

	"rooftune"
	servev1 "rooftune/serve/v1"
)

// Memo is a bounded LRU from a campaign's canonical bytes to its session
// fingerprint, so a process resolves each distinct campaign once: the
// serving tier answers repeat submissions (cache hits) and dist workers
// verify every node spec of a campaign without rebuilding and
// re-fingerprinting its Session each time.
//
// The canonical bytes are json.Marshal of the parsed campaign, so
// whitespace and key-order variants of one request share an entry.
// Fingerprints are a pure function of the campaign and the process's
// workload and system registries, which daemons fix at start-up; a
// process that re-registers a system under an existing name mid-flight
// must not share a Memo across the change. Campaigns that fail to
// resolve are never stored. Safe for concurrent use.
type Memo struct {
	max int

	mu      sync.Mutex
	order   list.List // of *memoEntry; front = most recently used
	entries map[string]*list.Element
}

type memoEntry struct {
	key string
	fp  string
}

// NewMemo builds a memo holding at most maxEntries campaigns (values
// below 1 are treated as 1). Callers pass the entry bound they already
// apply to their result cache.
func NewMemo(maxEntries int) *Memo {
	return &Memo{max: max(maxEntries, 1), entries: make(map[string]*list.Element)}
}

// Fingerprint returns the session fingerprint of c. A memoized campaign
// costs one JSON encoding and a map lookup; a new one is resolved
// through Options, rooftune.New and Session.Fingerprint and stored if
// that succeeds.
func (m *Memo) Fingerprint(c servev1.Campaign) (string, error) {
	key, err := json.Marshal(c)
	if err != nil {
		return "", fmt.Errorf("serve: encode campaign: %w", err)
	}
	m.mu.Lock()
	if el, ok := m.entries[string(key)]; ok {
		m.order.MoveToFront(el)
		fp := el.Value.(*memoEntry).fp
		m.mu.Unlock()
		return fp, nil
	}
	m.mu.Unlock()

	// Resolve outside the lock: concurrent first sightings of one
	// campaign may both resolve, and both compute the same fingerprint.
	fp, err := resolveFingerprint(c)
	if err != nil {
		return "", err
	}
	k := string(key)
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.entries[k]; ok {
		m.order.MoveToFront(el)
		return fp, nil
	}
	m.entries[k] = m.order.PushFront(&memoEntry{key: k, fp: fp})
	for m.order.Len() > m.max {
		oldest := m.order.Back()
		m.order.Remove(oldest)
		delete(m.entries, oldest.Value.(*memoEntry).key)
	}
	return fp, nil
}

// Len reports how many campaigns are memoized.
func (m *Memo) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.order.Len()
}

// resolveFingerprint builds the campaign's Session and fingerprints it.
func resolveFingerprint(c servev1.Campaign) (string, error) {
	opts, err := Options(c)
	if err != nil {
		return "", err
	}
	sess, err := rooftune.New(opts...)
	if err != nil {
		return "", fmt.Errorf("serve: invalid campaign: %w", err)
	}
	fp, err := sess.Fingerprint()
	if err != nil {
		return "", fmt.Errorf("serve: fingerprint: %w", err)
	}
	return fp, nil
}
