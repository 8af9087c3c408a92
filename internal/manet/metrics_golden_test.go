package manet

import (
	"bytes"
	"testing"

	"manetskyline/internal/telemetry"
)

// metricsMobileDFParams is a mobile 6×6 depth-first run under 5 % frame
// loss with the retry budget and a 300 s deadline: walks restart, partial
// queries close on the deadline, and AODV repairs broken routes, so most
// registry counters are nonzero.
func metricsMobileDFParams() Params {
	p := DefaultParams()
	p.Grid, p.GlobalN, p.SimTime = 6, 3600, 1800
	p.MinQueries, p.MaxQueries = 1, 2
	p.Strategy = DepthFirst
	p.Radio.Loss = 0.05
	p.QueryRetries = 3
	p.RetryBackoff = 10
	p.RetryBackoffMax = 60
	p.QueryDeadline = 300
	p.Seed = 23
	return p
}

// metricsRedistributeParams is a mobile 4×4 breadth-first run with §7
// redistribution and bounded per-link queues, the two counters the other
// inputs leave at zero: manet_transfers_total and radio_drops_queue_total.
func metricsRedistributeParams() Params {
	p := DefaultParams()
	p.Grid, p.GlobalN, p.SimTime = 4, 4000, 3600
	p.MinQueries, p.MaxQueries = 1, 2
	p.Redistribute = true
	p.RedistributePeriod = 300
	p.Radio.LinkQueue = 1
	p.Seed = 11
	return p
}

// TestMetricsGolden pins the Prometheus exposition of the registry a run
// fills, byte for byte: every radio_*, aodv_*, core_* and manet_* counter
// and histogram, with its help text. Regenerate with:
// go test ./internal/manet -run MetricsGolden -update
func TestMetricsGolden(t *testing.T) {
	withStrategy := func(p Params, s Forwarding) Params {
		p.Strategy = s
		return p
	}
	for _, tc := range []struct {
		name string
		p    Params
	}{
		{"golden_bf", withStrategy(goldenParams(), BreadthFirst)},
		{"golden_df", withStrategy(goldenParams(), DepthFirst)},
		{"golden_sf", withStrategy(goldenParams(), SamplingFilter)},
		{"fault_crash_partition", faultGoldenParams()},
		{"mobile_df", metricsMobileDFParams()},
		{"redistribute_bf", metricsRedistributeParams()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.p
			p.Metrics = telemetry.NewRegistry()
			Run(p)
			var buf bytes.Buffer
			if err := p.Metrics.WritePrometheus(&buf); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, tc.name+".metrics.prom", buf.Bytes())
		})
	}
}
