package tcp

import (
	"sync"
	"time"

	"manetskyline/internal/core"
)

// LeaseState classifies a directory entry's liveness.
type LeaseState int

// Lease states. Permanent (TTL-less) entries are always LeaseLive.
const (
	// LeaseUnknown: no entry.
	LeaseUnknown LeaseState = iota
	// LeaseLive: within the TTL (or registered without one).
	LeaseLive
	// LeaseSuspect: TTL lapsed less than one grace period (= one TTL) ago;
	// still resolvable, since a single missed heartbeat is routine in an ad
	// hoc network.
	LeaseSuspect
	// LeaseDown: lapsed beyond grace; invisible to Lookup.
	LeaseDown
)

// String names the state for logs and tests.
func (s LeaseState) String() string {
	switch s {
	case LeaseLive:
		return "live"
	case LeaseSuspect:
		return "suspect"
	case LeaseDown:
		return "down"
	}
	return "unknown"
}

// dirEntry is one registration. A zero ttl means permanent.
type dirEntry struct {
	addr    string
	ttl     time.Duration
	expires time.Time
}

// state classifies the entry at time now.
func (e dirEntry) state(now time.Time) LeaseState {
	if e.ttl <= 0 || now.Before(e.expires) {
		return LeaseLive
	}
	if now.Before(e.expires.Add(e.ttl)) {
		return LeaseSuspect
	}
	return LeaseDown
}

// Directory is the in-process Resolver: a map all peers of one process
// share, with optional TTL leases. Multi-process deployments use
// DirectoryClient against a DirectoryServer instead.
type Directory struct {
	mu    sync.RWMutex
	addrs map[core.DeviceID]dirEntry
}

// NewDirectory returns an empty directory.
func NewDirectory() *Directory {
	return &Directory{addrs: make(map[core.DeviceID]dirEntry)}
}

// Register records a peer's address permanently.
func (d *Directory) Register(id core.DeviceID, addr string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.addrs[id] = dirEntry{addr: addr}
}

// RegisterLease records a peer's address under a TTL lease; a non-positive
// ttl registers permanently.
func (d *Directory) RegisterLease(id core.DeviceID, addr string, ttl time.Duration) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	e := dirEntry{addr: addr, ttl: ttl}
	if ttl > 0 {
		e.expires = time.Now().Add(ttl)
	}
	d.addrs[id] = e
	return nil
}

// Heartbeat refreshes a leased entry; it reports false when the directory
// has no usable entry (never registered, or already down), telling the
// peer to re-register.
func (d *Directory) Heartbeat(id core.DeviceID) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	e, ok := d.addrs[id]
	if !ok || e.state(time.Now()) == LeaseDown {
		return false
	}
	if e.ttl > 0 {
		e.expires = time.Now().Add(e.ttl)
		d.addrs[id] = e
	}
	return true
}

// Lookup resolves a peer's address. Entries whose lease has decayed to
// down are invisible (and lazily removed).
func (d *Directory) Lookup(id core.DeviceID) (string, bool) {
	d.mu.RLock()
	e, ok := d.addrs[id]
	d.mu.RUnlock()
	if !ok {
		return "", false
	}
	if e.state(time.Now()) == LeaseDown {
		d.mu.Lock()
		// Re-check under the write lock: the peer may have re-registered.
		if cur, ok := d.addrs[id]; ok && cur.state(time.Now()) == LeaseDown {
			delete(d.addrs, id)
		}
		d.mu.Unlock()
		return "", false
	}
	return e.addr, true
}

// Sweep removes entries that have decayed to down and returns how many it
// evicted. The DirectoryServer's janitor calls it periodically; in-process
// directories also evict lazily in Lookup.
func (d *Directory) Sweep() int {
	now := time.Now()
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for id, e := range d.addrs {
		if e.state(now) == LeaseDown {
			delete(d.addrs, id)
			n++
		}
	}
	return n
}

// StateCounts tallies current registrations by lease state. Down entries
// still counted here are ones the janitor has not yet swept.
func (d *Directory) StateCounts() (live, suspect, down int) {
	now := time.Now()
	d.mu.RLock()
	defer d.mu.RUnlock()
	for _, e := range d.addrs {
		switch e.state(now) {
		case LeaseLive:
			live++
		case LeaseSuspect:
			suspect++
		case LeaseDown:
			down++
		}
	}
	return live, suspect, down
}

// Snapshot returns the resolvable (live or suspect) peers.
func (d *Directory) Snapshot() map[core.DeviceID]string {
	now := time.Now()
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make(map[core.DeviceID]string, len(d.addrs))
	for id, e := range d.addrs {
		if e.state(now) != LeaseDown {
			out[id] = e.addr
		}
	}
	return out
}
