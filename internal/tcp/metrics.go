package tcp

import (
	"manetskyline/internal/telemetry"
	"manetskyline/internal/wire"
)

// Metrics is the TCP runtime's telemetry surface. The zero value (all nil)
// is the disabled state; increments then cost one nil check. Several peers
// in one process may share a registry: registration dedupes by name, so
// they accumulate into the same counters.
type Metrics struct {
	// ConnsAccepted counts inbound connections; OpenConns tracks the ones
	// currently being served.
	ConnsAccepted *telemetry.Counter
	OpenConns     *telemetry.Gauge
	// Dials and DialFailures count outbound connection attempts; Reconnects
	// counts links re-established after at least one failure, ConnsReaped
	// counts idle outbound connections closed by the pool.
	Dials        *telemetry.Counter
	DialFailures *telemetry.Counter
	Reconnects   *telemetry.Counter
	ConnsReaped  *telemetry.Counter
	// SendRetries counts frames re-attempted after a write failure (a link
	// found closed by its peer before the write counts as one);
	// DeadLetters counts frames abandoned (queue full, retry window
	// exhausted, or unflushable at shutdown); SendsSuppressed counts sends
	// skipped because the directory no longer resolves the peer;
	// DeadLetterSlots counts quorum slots failed explicitly because a
	// query's tagged flood frame was abandoned (the tcp_deadletter_total
	// ledger behind the fail-fast query path).
	SendRetries     *telemetry.Counter
	DeadLetters     *telemetry.Counter
	SendsSuppressed *telemetry.Counter
	DeadLetterSlots *telemetry.Counter
	// BreakerOpens counts circuit-breaker open transitions; BreakerDrops
	// counts frames dropped because a link's breaker was open.
	BreakerOpens *telemetry.Counter
	BreakerDrops *telemetry.Counter
	// DecodeFailures counts inbound frames whose decode failed (the
	// connection is closed); FramesDropped counts well-framed messages of
	// unknown kind that were skipped; DupResults counts duplicate result
	// frames ignored by the quorum dedupe.
	DecodeFailures *telemetry.Counter
	FramesDropped  *telemetry.Counter
	DupResults     *telemetry.Counter
	// Heartbeats counts lease refreshes attempted by this peer;
	// HeartbeatFailures counts re-registrations that failed after a
	// rejected heartbeat.
	Heartbeats        *telemetry.Counter
	HeartbeatFailures *telemetry.Counter
	// MessagesIn/Out and BytesIn/Out count framed protocol messages and
	// their wire bytes: the 4-byte header word, the 10-byte trace context
	// of a traced frame, and the payload (wire.FrameWireSize). The in side
	// counts each frame as it is read. The out side counts a frame once,
	// after its write succeeds; a failed attempt is not counted. So the out
	// count can briefly trail a receiver that has already read the frame.
	MessagesIn  *telemetry.Counter
	MessagesOut *telemetry.Counter
	BytesIn     *telemetry.Counter
	BytesOut    *telemetry.Counter
	// QueriesIssued and QueriesCompleted count distributed queries
	// originated here; QueryLatency observes their end-to-end seconds.
	QueriesIssued    *telemetry.Counter
	QueriesCompleted *telemetry.Counter
	QueryLatency     *telemetry.Histogram
	// DirRequests counts directory protocol requests served; DirHeartbeats
	// the heartbeat subset; LeasesExpired the registrations the janitor
	// evicted after their lease decayed.
	DirRequests   *telemetry.Counter
	DirHeartbeats *telemetry.Counter
	LeasesExpired *telemetry.Counter
}

// NewMetrics registers the TCP metrics in r (nil r ⇒ disabled metrics).
func NewMetrics(r *telemetry.Registry) Metrics {
	return Metrics{
		ConnsAccepted: r.Counter("tcp_conns_accepted_total", "inbound connections accepted"),
		OpenConns:     r.Gauge("tcp_open_conns", "inbound connections currently being served"),
		Dials:         r.Counter("tcp_dials_total", "outbound connection attempts"),
		DialFailures:  r.Counter("tcp_dial_failures_total", "outbound connection attempts that failed"),
		Reconnects:    r.Counter("tcp_reconnects_total", "links re-established after at least one failure"),
		ConnsReaped:   r.Counter("tcp_conns_reaped_total", "idle outbound connections closed by the pool"),
		SendRetries:   r.Counter("tcp_send_retries_total", "frames re-attempted after a write failure or a peer-closed link"),
		DeadLetters:   r.Counter("tcp_dead_letters_total", "frames abandoned after queue overflow or retry exhaustion"),
		SendsSuppressed: r.Counter("tcp_sends_suppressed_total",
			"sends skipped because the directory no longer resolves the peer"),
		DeadLetterSlots: r.Counter("tcp_deadletter_total",
			"quorum slots failed explicitly after a query flood frame was dead-lettered"),
		BreakerOpens: r.Counter("tcp_breaker_opens_total",
			"circuit-breaker open transitions across all links"),
		BreakerDrops: r.Counter("tcp_breaker_drops_total",
			"frames dropped because the link's circuit breaker was open"),
		DecodeFailures: r.Counter("tcp_decode_failures_total", "inbound frames whose decode failed"),
		FramesDropped:  r.Counter("tcp_frames_dropped_total", "well-framed inbound messages of unknown kind skipped"),
		DupResults:     r.Counter("tcp_dup_results_total", "duplicate result frames ignored by the quorum dedupe"),
		Heartbeats:     r.Counter("tcp_heartbeats_total", "directory lease refreshes attempted"),
		HeartbeatFailures: r.Counter("tcp_heartbeat_failures_total",
			"lease re-registrations that failed after a rejected heartbeat"),
		MessagesIn:    r.Counter("tcp_messages_in_total", "framed protocol messages received"),
		MessagesOut:   r.Counter("tcp_messages_out_total", "framed protocol messages sent"),
		BytesIn:       r.Counter("tcp_bytes_in_total", "wire bytes received including frame headers"),
		BytesOut:      r.Counter("tcp_bytes_out_total", "wire bytes sent including frame headers"),
		QueriesIssued: r.Counter("tcp_queries_issued_total", "distributed queries originated by this peer"),
		QueriesCompleted: r.Counter("tcp_queries_completed_total",
			"originated queries whose quorum of results arrived in time"),
		QueryLatency: r.Histogram("tcp_query_latency_seconds",
			"end-to-end latency of originated queries", telemetry.LatencyBuckets()),
		DirRequests:   r.Counter("tcp_dir_requests_total", "directory protocol requests served"),
		DirHeartbeats: r.Counter("tcp_dir_heartbeats_total", "directory heartbeat requests served"),
		LeasesExpired: r.Counter("tcp_leases_expired_total", "registrations evicted after lease decay"),
	}
}

// frameBytes is the wire size of one framed message: the payload plus the
// 4-byte length prefix, plus the trace context when the frame carries one
// (see internal/wire) — so the byte ledger reflects tracing's real cost.
func frameBytes(msg []byte, traced bool) int64 {
	return int64(wire.FrameWireSize(len(msg), traced))
}
