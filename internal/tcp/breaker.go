package tcp

import (
	"sync"
	"time"
)

// BreakerState classifies a neighbour link's circuit breaker.
type BreakerState int32

// Breaker states. The gauge tcp_breaker_state{from,to} exports these values.
const (
	// BreakerClosed: the link is healthy; frames flow normally.
	BreakerClosed BreakerState = iota
	// BreakerOpen: consecutive dial failures crossed the threshold; frames
	// are dropped immediately (and their quorum slots failed) instead of
	// burning the retry budget against a dead peer.
	BreakerOpen
	// BreakerHalfOpen: the cooldown elapsed and one probe frame is in
	// flight; its dial's outcome closes or re-opens the breaker.
	BreakerHalfOpen
)

// String names the state for logs and tests.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// breaker is one neighbour link's circuit breaker: closed → open after
// Config.BreakerThreshold consecutive dial failures, open → half-open after
// Config.BreakerCooldown, half-open → closed on a connected dial or back to
// open on a failed probe. A nil breaker (threshold 0) is disabled
// and always allows.
//
// The breaker exists so a dead peer costs one cooldown per probe instead of
// a full RetryTimeout per frame: queries fail their quorum slot immediately
// and complete on the surviving peers rather than idling on the dead one.
type breaker struct {
	mu        sync.Mutex
	threshold int
	cooldown  time.Duration
	state     BreakerState
	fails     int // consecutive dial failures
	openedAt  time.Time
}

// newBreaker returns a breaker, nil when the threshold disables it.
func newBreaker(threshold int, cooldown time.Duration) *breaker {
	if threshold <= 0 {
		return nil
	}
	return &breaker{threshold: threshold, cooldown: cooldown}
}

// allow reports whether a delivery attempt may proceed now. On an open
// breaker whose cooldown elapsed it transitions to half-open and admits the
// caller as the single probe.
func (b *breaker) allow(now time.Time) bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if now.Sub(b.openedAt) >= b.cooldown {
			b.state = BreakerHalfOpen
			return true
		}
		return false
	default: // half-open: one probe already in flight
		return false
	}
}

// fastFail reports whether frames should be dropped without a delivery
// attempt: the breaker is open and still cooling down.
func (b *breaker) fastFail(now time.Time) bool {
	if b == nil {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state == BreakerOpen && now.Sub(b.openedAt) < b.cooldown
}

// success records a connected dial, closing the breaker.
func (b *breaker) success() {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.state = BreakerClosed
	b.fails = 0
	b.mu.Unlock()
}

// failure records one dial failure; it reports true when this failure
// opened (or re-opened) the breaker.
func (b *breaker) failure(now time.Time) bool {
	if b == nil {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails++
	if b.state == BreakerHalfOpen || (b.state == BreakerClosed && b.fails >= b.threshold) {
		b.state = BreakerOpen
		b.openedAt = now
		return true
	}
	if b.state == BreakerOpen {
		// A late failure while open (e.g. a racing probe) refreshes the
		// cooldown so the link keeps backing off.
		b.openedAt = now
	}
	return false
}

// snapshot returns the current state and consecutive-failure count.
func (b *breaker) snapshot() (BreakerState, int) {
	if b == nil {
		return BreakerClosed, 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state, b.fails
}
