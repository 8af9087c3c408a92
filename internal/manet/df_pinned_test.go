package manet

import (
	"slices"
	"testing"

	"manetskyline/internal/aodv"
	"manetskyline/internal/radio"
)

// pinnedDF100Params is the sim_df_100 benchmark scenario shrunk to run in
// well under a second: 100 waypoint devices on the 1 km² field, one query
// each, the same 9 % deadline. At the default 380 m range a device near the
// field's edge probes a ring that does not cover the occupied grid, so DF's
// next-hop choice runs on the gathered-grid path as well as on the
// full-coverage scan.
func pinnedDF100Params() Params {
	p := DefaultParams()
	p.Grid, p.GlobalN, p.SimTime = 10, 2000, 300
	p.MinQueries, p.MaxQueries = 1, 1
	p.QueryDeadline = 0.09 * p.SimTime
	p.Strategy = DepthFirst
	p.Seed = 1010
	return p
}

// pinnedDFRetryParams is pinnedDF100Params under 5 % frame loss with the
// originator's retry budget on: lost hand-offs, acks and subtree results
// end walks through the ack and subtree timers.
func pinnedDFRetryParams() Params {
	p := pinnedDF100Params()
	p.Radio.Loss = 0.05
	p.QueryRetries = 3
	p.RetryBackoff = 10
	p.RetryBackoffMax = 60
	return p
}

// pinnedDFSparseParams is pinnedDFRetryParams on a sparse network (120 m
// range) with a 10 s subtree timeout and a 30 % deadline: walks exhaust
// small components early, so originators restart them, most two or three
// times, and stragglers return while a restart is pending.
func pinnedDFSparseParams() Params {
	p := pinnedDFRetryParams()
	p.Radio.Range = 120
	p.SubtreeTimeout = 10
	p.QueryDeadline = 0.3 * p.SimTime
	return p
}

// dfPinned is what TestDFPinned100 holds fixed.
type dfPinned struct {
	Events  uint64
	Radio   radio.Counters
	Aodv    aodv.Counters
	Results []int // ResultTuples per query, in issue order
	Retries []int // Retries per query, in issue order
}

// TestDFPinned100 pins every depth-first forwarding decision of 100-device
// runs: each hand-off picks the smallest-ID untried neighbour, so any change
// in that choice, in the ack and subtree timers or in the originator's
// restarts moves the event count, the frame counters or the per-query
// results and retries. The lossless row was recorded with a forwarder that
// took the first untried entry of the full neighbour list; the retry rows
// with the simulator's own depth-first implementation, before DF moved into
// core.Flood. The Broadcasts, Unicasts, NeighborQueries, NeighborScanned,
// RouteDiscoveries and RouteFailures of each row were read from the
// registry counters that counted them before those fields existed.
//
// Events was re-recorded when DF's ack and subtree timers moved onto
// sim.Lane: arming a node's next DF timer of a query now cancels its
// previous one, which could only have fired as a no-op, and a cancelled
// timer is not an executed event. Every event that still runs keeps its
// time and order, so the other fields did not move.
func TestDFPinned100(t *testing.T) {
	cases := []struct {
		name string
		p    Params
		want dfPinned
	}{
		{"lossless", pinnedDF100Params(), dfPinned{
			Events: 1040554,
			Radio: radio.Counters{FramesSent: 1018997, Receptions: 3462758,
				DroppedRange: 41, BytesSent: 97526056,
				Broadcasts: 68207, Unicasts: 950790, NeighborQueries: 470783, NeighborScanned: 16244154},
			Aodv: aodv.Counters{RREQSent: 68207, RREPSent: 106098, RERRSent: 814,
				DataForwarded: 843890, DataDelivered: 795047,
				RouteDiscoveries: 1630, RouteFailures: 835},
			Results: []int{
				5, 7, 4, 6, 7, 3, 5, 5, 5, 5, 5, 5, 6, 5, 5, 5, 5, 5, 6, 6,
				8, 3, 11, 6, 6, 5, 5, 6, 5, 5, 4, 6, 5, 5, 4, 6, 6, 6, 6, 7,
				6, 4, 5, 6, 9, 6, 5, 6, 4, 5, 5, 6, 5, 3, 4, 6, 4, 4, 6, 7,
				11, 5, 7, 5, 5, 6, 8, 6, 5, 5, 4, 6, 6, 6, 4, 6, 6, 6, 5, 6,
				5, 7, 5, 6, 5, 3, 6, 4, 6, 5, 4, 5, 9, 5, 5, 5, 5, 6, 7, 5,
			},
			Retries: make([]int, 100),
		}},
		{"loss_retries", pinnedDFRetryParams(), dfPinned{
			Events: 319079,
			Radio: radio.Counters{FramesSent: 301932, Receptions: 1720896,
				DroppedRange: 29, DroppedLoss: 90289, BytesSent: 26924660,
				Broadcasts: 42388, Unicasts: 259544, NeighborQueries: 136072, NeighborScanned: 5134770},
			Aodv: aodv.Counters{RREQSent: 42388, RREPSent: 55773, RERRSent: 659,
				DataForwarded: 203121, DataDelivered: 171797, DataDropped: 15,
				RouteDiscoveries: 916, RouteFailures: 507},
			Results: []int{
				6, 4, 4, 4, 2, 4, 5, 2, 3, 2, 6, 2, 0, 2, 2, 3, 4, 0, 2, 0,
				1, 3, 5, 0, 0, 0, 0, 0, 3, 3, 0, 0, 0, 6, 5, 0, 0, 4, 0, 0,
				3, 3, 0, 0, 6, 3, 0, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 0, 0,
				0, 5, 0, 7, 0, 0, 5, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0,
				0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 5,
			},
			Retries: make([]int, 100),
		}},
		{"sparse_retries", pinnedDFSparseParams(), dfPinned{
			Events: 244688,
			Radio: radio.Counters{FramesSent: 217987, Receptions: 502584,
				DroppedRange: 34, DroppedLoss: 26244, BytesSent: 19249704,
				Broadcasts: 73694, Unicasts: 144293, NeighborQueries: 119632, NeighborScanned: 2358122},
			Aodv: aodv.Counters{RREQSent: 73694, RREPSent: 30624, RERRSent: 6003,
				DataForwarded: 107959, DataDelivered: 75240, DataDropped: 181,
				RouteDiscoveries: 2508, RouteFailures: 1620},
			Results: []int{
				5, 4, 4, 6, 5, 6, 4, 5, 4, 3, 4, 3, 2, 4, 5, 2, 4, 5, 6, 0,
				4, 4, 5, 5, 4, 5, 0, 1, 4, 5, 4, 1, 0, 8, 7, 0, 5, 4, 4, 6,
				3, 5, 2, 0, 6, 3, 6, 3, 7, 0, 5, 6, 4, 6, 0, 0, 7, 5, 3, 3,
				7, 4, 0, 4, 0, 6, 7, 6, 0, 0, 0, 5, 3, 4, 2, 0, 3, 0, 3, 0,
				0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
			},
			Retries: []int{
				2, 3, 2, 2, 2, 3, 2, 2, 3, 2, 2, 2, 2, 2, 2, 3, 2, 2, 2, 2,
				2, 3, 2, 2, 2, 3, 3, 2, 2, 2, 2, 2, 3, 3, 3, 2, 2, 2, 2, 3,
				2, 3, 3, 3, 2, 2, 2, 3, 3, 2, 2, 2, 2, 2, 2, 3, 2, 3, 2, 2,
				2, 2, 3, 3, 2, 2, 2, 3, 3, 2, 2, 2, 2, 3, 3, 3, 2, 3, 2, 3,
				2, 2, 3, 2, 2, 3, 2, 1, 2, 2, 1, 2, 2, 1, 1, 2, 1, 1, 1, 0,
			},
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			out := Run(c.p)
			got := dfPinned{Events: out.Events, Radio: out.Radio, Aodv: out.Aodv}
			for _, q := range out.Queries {
				got.Results = append(got.Results, q.ResultTuples)
				got.Retries = append(got.Retries, q.Retries)
			}
			if got.Events != c.want.Events || got.Radio != c.want.Radio || got.Aodv != c.want.Aodv ||
				!slices.Equal(got.Results, c.want.Results) || !slices.Equal(got.Retries, c.want.Retries) {
				t.Errorf("DF run moved:\n got %+v\nwant %+v", got, c.want)
			}
		})
	}
}

// TestDFReHandoffBounded runs DF on a mobile 5×5 network with loss,
// retries, a deadline and several queries per device. A QueryLog keeps one
// counter per originator, so a walk of an older query that reaches a device
// after a newer one is accepted and processed again. The device then holds
// one walk for that query, the newest, and the run stays small; were the
// replaced walk to go on walking on its own timers, walks would multiply
// with every such hand-off. The run takes 39 388 events; the bound keeps
// the headroom it had when the run took 49 145, before DF's cancelled
// timers stopped counting as events.
func TestDFReHandoffBounded(t *testing.T) {
	p := smallParams(DepthFirst)
	p.Static = false
	p.Grid, p.GlobalN, p.SimTime = 5, 5000, 900
	p.QueryRetries, p.RetryBackoff, p.RetryBackoffMax = 2, 10, 60
	p.QueryDeadline = 120
	p.Radio.Range = 380
	p.Radio.Loss = 0.05
	if out := Run(p); out.Events > 160000 {
		t.Errorf("%d events, want at most 160000", out.Events)
	}
}
