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

// dfPinned is what TestDFPinned100 holds fixed.
type dfPinned struct {
	Events  uint64
	Radio   radio.Counters
	Aodv    aodv.Counters
	Results []int // ResultTuples per query, in issue order
}

// TestDFPinned100 pins every depth-first forwarding decision of a
// 100-device run: each hand-off picks the smallest-ID untried neighbour, so
// any change in that choice moves the event count, the frame counters or
// the per-query results. The values were recorded with a forwarder that
// took the first untried entry of the full neighbour list.
func TestDFPinned100(t *testing.T) {
	out := Run(pinnedDF100Params())
	got := dfPinned{Events: out.Events, Radio: out.Radio, Aodv: out.Aodv}
	for _, q := range out.Queries {
		got.Results = append(got.Results, q.ResultTuples)
	}
	want := dfPinned{
		Events: 1423083,
		Radio: radio.Counters{FramesSent: 1018997, Receptions: 3462758,
			DroppedRange: 41, BytesSent: 97526056},
		Aodv: aodv.Counters{RREQSent: 68207, RREPSent: 106098, RERRSent: 814,
			DataForwarded: 843890, DataDelivered: 795047},
		Results: []int{
			5, 7, 4, 6, 7, 3, 5, 5, 5, 5, 5, 5, 6, 5, 5, 5, 5, 5, 6, 6,
			8, 3, 11, 6, 6, 5, 5, 6, 5, 5, 4, 6, 5, 5, 4, 6, 6, 6, 6, 7,
			6, 4, 5, 6, 9, 6, 5, 6, 4, 5, 5, 6, 5, 3, 4, 6, 4, 4, 6, 7,
			11, 5, 7, 5, 5, 6, 8, 6, 5, 5, 4, 6, 6, 6, 4, 6, 6, 6, 5, 6,
			5, 7, 5, 6, 5, 3, 6, 4, 6, 5, 4, 5, 9, 5, 5, 5, 5, 6, 7, 5,
		},
	}
	if got.Events != want.Events || got.Radio != want.Radio || got.Aodv != want.Aodv ||
		!slices.Equal(got.Results, want.Results) {
		t.Errorf("DF run moved:\n got %+v\nwant %+v", got, want)
	}
}
