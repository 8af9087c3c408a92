// Package core implements the paper's primary contribution: distributed
// constrained skyline query processing for mobile ad hoc networks.
//
// It provides the query specification Q_ds = (id, cnt, pos_org, d) with its
// piggy-backed filtering tuple (§3.2), the exact and estimated dominating
// region computations used to choose filtering tuples (§3.3), the dynamic
// filter update of §3.4, the per-device duplicate-query log (§3.4), result
// assembly with duplicate elimination (§4.3), the data-reduction-rate
// accounting of Formula 1, and the static-grid executor used for the
// pre-tests of §5.2.2-I. The MANET simulator (internal/manet) and the live
// peer runtime (internal/tcp) both drive their devices through this package.
package core

import (
	"fmt"
	"math"
	"sync"

	"manetskyline/internal/tuple"
)

// DeviceID identifies a mobile device.
type DeviceID int

// Query is the distributed skyline query specification forwarded between
// devices: Q_ds = (id, cnt, pos_org, d) extended with the filtering tuple
// that travels with it. The zero Filter (nil) means no filtering tuple has
// been chosen yet.
type Query struct {
	// Org identifies the originating device M_org.
	Org DeviceID
	// Cnt is the originator-local query counter used for duplicate
	// suppression; the paper encodes it as one byte that wraps (§3.4).
	Cnt uint8
	// Pos is the originator's position when the query was issued.
	Pos tuple.Point
	// D is the distance of interest; +Inf or non-positive disables the
	// spatial constraint (used by the static pre-tests).
	D float64
	// Filter is the current primary filtering tuple, updated hop by hop
	// under the dynamic strategy.
	Filter *tuple.Tuple
	// FilterVDR is the pruning-potential score of Filter under the
	// originator's estimation mode, carried so that downstream devices can
	// compare their local candidates against it.
	FilterVDR float64
	// Extra carries additional filtering tuples under the multi-filter
	// extension (§7): chosen once at the originator by greedy
	// dominating-region coverage and applied by every device after its
	// local skyline; only the primary filter participates in dynamic
	// updates.
	Extra []tuple.Tuple
}

// NumFilters returns how many filtering tuples the query carries.
func (q Query) NumFilters() int {
	n := len(q.Extra)
	if q.Filter != nil {
		n++
	}
	return n
}

// Key returns the (id, cnt) pair that identifies a query instance.
func (q Query) Key() QueryKey { return QueryKey{Org: q.Org, Cnt: q.Cnt} }

// WithFilter returns a copy of q carrying the given filtering tuple.
func (q Query) WithFilter(flt *tuple.Tuple, vdr float64) Query {
	q.Filter = flt
	q.FilterVDR = vdr
	return q
}

// String renders the query for logs.
func (q Query) String() string {
	return fmt.Sprintf("Q(org=%d cnt=%d pos=%v d=%g)", q.Org, q.Cnt, q.Pos, q.D)
}

// QueryKey identifies one query instance for duplicate suppression.
type QueryKey struct {
	Org DeviceID
	Cnt uint8
}

// QueryLog is the per-device duplicate-suppression table of §3.4: a hash
// table mapping originator id to the last seen query counter. Space is O(m)
// in the number of devices; the check is O(1). It is safe for concurrent
// use because the live peer runtime consults it from multiple goroutines.
//
// Counters are single bytes that wrap around (the paper resets them at
// regular intervals); the log therefore treats a counter as "new" when it
// differs from the last seen value, matching the paper's assumption that a
// device only ever has one query in flight and cares only about its latest.
type QueryLog struct {
	mu   sync.Mutex
	last map[DeviceID]uint8
}

// NewQueryLog returns an empty log.
func NewQueryLog() *QueryLog {
	return &QueryLog{last: make(map[DeviceID]uint8)}
}

// FirstTime records the query and reports whether this device had NOT
// already processed it: true exactly once per (id, cnt).
func (l *QueryLog) FirstTime(k QueryKey) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if c, ok := l.last[k.Org]; ok && c == k.Cnt {
		return false
	}
	l.last[k.Org] = k.Cnt
	return true
}

// Processed reports whether the query was already handled, without
// recording anything.
func (l *QueryLog) Processed(k QueryKey) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	c, ok := l.last[k.Org]
	return ok && c == k.Cnt
}

// Reset clears the log, modelling the paper's periodic counter reset.
func (l *QueryLog) Reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.last = make(map[DeviceID]uint8)
}

// Len returns the number of originators tracked (the O(m) space bound).
func (l *QueryLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.last)
}

// Unconstrained is the distance value that disables the spatial predicate.
func Unconstrained() float64 { return math.Inf(1) }
