// Package core implements the paper's primary contribution: distributed
// constrained skyline query processing for mobile ad hoc networks.
//
// It provides the query specification Q_ds = (id, cnt, pos_org, d) with its
// piggy-backed filtering tuple (§3.2), the exact and estimated dominating
// region computations used to choose filtering tuples (§3.3), the dynamic
// filter update of §3.4, the per-device duplicate-query log (§3.4), result
// assembly with duplicate elimination (§4.3), the data-reduction-rate
// accounting of Formula 1, the static-grid executor used for the pre-tests
// of §5.2.2-I, and the BF/SF flood protocol as one transport-agnostic state
// machine (Flood). The MANET simulator (internal/manet) and the live peer
// runtime (internal/tcp) both drive their devices, and Flood, through this
// package.
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
// table from originator id to the counters seen from it. Space is O(m) in
// the number of devices; the check is O(1). It is safe for concurrent use
// because the live peer runtime consults it from multiple goroutines.
//
// Counters are single bytes that wrap around (the paper resets them at
// regular intervals), so they are compared by serial-number arithmetic
// (RFC 1982): per originator the log keeps the newest counter seen and a
// window of the 64 counters up to it. A counter ahead of the newest is new;
// one inside the window is new once; one behind the window is stale. So
// several queries of one originator may be in flight at once, and a late
// copy of an older query never counts as new again, as long as no copy
// arrives after 64 newer queries of its originator.
type QueryLog struct {
	mu   sync.Mutex
	seen map[DeviceID]counterWindow
}

// counterWindow is what a log holds of one originator: bit i of window is
// set when counter high-i was seen.
type counterWindow struct {
	high   uint8
	window uint64
}

// NewQueryLog returns an empty log.
func NewQueryLog() *QueryLog {
	return &QueryLog{seen: make(map[DeviceID]counterWindow)}
}

// FirstTime records the query and reports whether this device had NOT
// already processed it: true exactly once per (id, cnt), and false for a
// counter too far behind the newest to tell.
func (l *QueryLog) FirstTime(k QueryKey) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	w, ok := l.seen[k.Org]
	switch d := newer(k.Cnt, w.high); {
	case !ok:
		w = counterWindow{high: k.Cnt, window: 1}
	case d > 0:
		w.high = k.Cnt
		w.window = w.window<<uint(d) | 1
	case d > -64 && w.window&(1<<uint(-d)) == 0:
		w.window |= 1 << uint(-d)
	default:
		return false
	}
	l.seen[k.Org] = w
	return true
}

// newer is how many queries counter c is ahead of counter h, negative when
// it is behind, by serial-number arithmetic on the wrapping byte.
func newer(c, h uint8) int { return int(int8(c - h)) }

// Reset clears the log, modelling the paper's periodic counter reset.
func (l *QueryLog) Reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seen = make(map[DeviceID]counterWindow)
}

// Unconstrained is the distance value that disables the spatial predicate.
func Unconstrained() float64 { return math.Inf(1) }
