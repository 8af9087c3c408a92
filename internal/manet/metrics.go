package manet

import "manetskyline/internal/telemetry"

// responseTimeBuckets spans the simulator's observed range: sub-second DF
// hand-offs on tiny grids up to multi-minute BF floods on dense ones.
func responseTimeBuckets() []float64 {
	return []float64{0.5, 1, 2, 5, 10, 30, 60, 120, 300, 600, 1200}
}

// publish adds one finished run's totals to r: the radio_*, aodv_* and
// manet_* families, counted during the run in out's per-run records. done
// lists the completed queries in completion order, the order their response
// times are observed in. A nil r publishes nothing.
func publish(r *telemetry.Registry, out *Outcome, done []*QueryMetrics) {
	if r == nil {
		return
	}
	add := func(name, help string, v int) { r.Counter(name, help).Add(int64(v)) }

	rc := out.Radio
	add("radio_broadcasts_total", "broadcast transmissions", rc.Broadcasts)
	add("radio_unicasts_total", "unicast transmissions", rc.Unicasts)
	add("radio_frames_sent_total", "frames transmitted (broadcast or unicast)", rc.FramesSent)
	add("radio_bytes_sent_total", "bytes transmitted including headers", rc.BytesSent)
	add("radio_deliveries_total", "frames successfully delivered to a receiver", rc.Receptions)
	add("radio_drops_range_total", "frames lost to range/fading at delivery time", rc.DroppedRange)
	add("radio_drops_loss_total", "frames lost to the independent loss process", rc.DroppedLoss)
	add("radio_drops_fault_total", "frames removed by the fault injector", rc.DroppedFault)
	add("radio_drops_queue_total", "frames dropped at a bounded per-link send queue", rc.DroppedQueue)
	add("radio_neighbor_queries_total", "neighbor-set probes against the spatial grid", rc.NeighborQueries)
	add("radio_neighbor_scanned_total", "candidate nodes distance-checked by neighbor probes", rc.NeighborScanned)

	ac := out.Aodv
	add("aodv_route_discoveries_total", "route discovery rounds started", ac.RouteDiscoveries)
	add("aodv_rreq_sent_total", "route requests transmitted", ac.RREQSent)
	add("aodv_rrep_sent_total", "route replies transmitted", ac.RREPSent)
	add("aodv_rerr_sent_total", "route errors transmitted", ac.RERRSent)
	add("aodv_route_failures_total", "link breaks detected while forwarding data", ac.RouteFailures)
	add("aodv_data_forwarded_total", "hop-level data transmissions", ac.DataForwarded)
	add("aodv_data_delivered_total", "end-to-end data deliveries", ac.DataDelivered)
	add("aodv_data_dropped_total", "data packets given up on (no route, TTL, or break)", ac.DataDropped)
	add("aodv_control_bytes_sent_total", "on-air bytes of RREQ/RREP/RERR control transmissions", ac.ControlBytes())

	var msgs, bytes, retries, partial int
	for _, q := range out.Queries {
		msgs += q.Messages
		bytes += q.Bytes
		retries += q.Retries
		if q.Partial {
			partial++
		}
	}
	add("manet_queries_issued_total", "skyline queries issued by devices", len(out.Queries))
	add("manet_queries_skipped_total", "issue opportunities skipped while a query was in progress", out.SkippedIssues)
	add("manet_queries_completed_total", "queries that reached their completion condition", len(done))
	add("manet_query_messages_total", "hop-level protocol transmissions attributed to queries", msgs)
	add("manet_query_bytes_sent_total", "payload bytes of query-attributed transmissions", bytes)
	add("manet_transfers_total", "relation hand-offs between devices", out.Transfers)
	add("manet_query_retries_total", "originator query re-issues under the retry policy", retries)
	add("manet_queries_partial_total", "queries finalized by their deadline with partial results", partial)

	rt := r.Histogram("manet_response_time_seconds",
		"completed query response times in simulated seconds", responseTimeBuckets())
	for _, q := range done {
		rt.Observe(q.ResponseTime)
	}
	recall := r.Histogram("manet_query_recall",
		"per-query recall against the centralized constrained-skyline oracle",
		[]float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1})
	if out.RecallComputed {
		for _, q := range out.Queries {
			recall.Observe(q.Recall)
		}
	}
}
