package manet

import (
	"math"
	"testing"

	"manetskyline/internal/faults"
	"manetskyline/internal/telemetry"
)

// Lossy-radio scenarios: the protocol must stay live (no panics, queries
// still progress via timeouts) and whatever it returns must be internally
// consistent even when frames vanish. Table-driven over every forwarding
// strategy so a new strategy is covered by adding it to allStrategies.
func TestLossyRadioBothStrategies(t *testing.T) {
	for _, strategy := range allStrategies {
		strategy := strategy
		t.Run(strategy.String(), func(t *testing.T) {
			for _, loss := range []float64{0.05, 0.2} {
				p := DefaultParams()
				p.Grid = 4
				p.GlobalN = 6000
				p.Strategy = strategy
				p.SimTime = 3600
				p.MinQueries, p.MaxQueries = 1, 1
				p.Radio.Loss = loss
				p.KeepSkylines = true
				p.Recall = true
				// Every (strategy, loss) pair gets its own seed: deriving the seed
				// from loss alone made BF and DF replay the same stream.
				p.Seed = int64(1000*loss) + int64(strategy)*7919 + 1
				out := Run(p)
				if len(out.Queries) == 0 {
					t.Fatalf("loss=%v: no queries issued", loss)
				}
				if out.Radio.DroppedLoss == 0 {
					t.Errorf("loss=%v: loss process never fired", loss)
				}
				for _, q := range out.Queries {
					for i, a := range q.Skyline {
						for j, b := range q.Skyline {
							if i != j && a.Dominates(b) {
								t.Fatalf("loss=%v: result contains dominated tuple", loss)
							}
						}
						if !q.Pos.WithinDist(a.Pos(), q.D) {
							t.Fatalf("loss=%v: result leaked out-of-range tuple", loss)
						}
					}
				}
				// Even at 20% loss a mobile network recovers some answers: recall
				// must be positive, and the oracle must actually have run.
				r, ok := out.MeanRecall()
				if !ok {
					t.Fatalf("loss=%v: recall not computed", loss)
				}
				if r <= 0 {
					t.Errorf("loss=%v: mean recall %v, want > 0", loss, r)
				}
				t.Logf("loss=%.0f%%: completion %.0f%%, recall %.3f, %d frames lost",
					loss*100, out.CompletionRate()*100, r, out.Radio.DroppedLoss)
			}
		})
	}
}

// A single-device network: every query completes instantly against local
// data only.
func TestSingleDeviceNetwork(t *testing.T) {
	p := DefaultParams()
	p.Grid = 1
	p.GlobalN = 2000
	p.SimTime = 1200
	p.MinQueries, p.MaxQueries = 2, 2
	p.Static = true
	p.KeepSkylines = true
	out := Run(p)
	if len(out.Queries) == 0 {
		t.Fatalf("no queries issued")
	}
	for _, q := range out.Queries {
		if !q.Done {
			t.Errorf("single-device query should complete immediately")
		}
		if q.Acc.Devices != 0 {
			t.Errorf("no remote devices exist; Acc.Devices = %d", q.Acc.Devices)
		}
	}
}

// Devices that hold no data (empty grid cells) must still relay and answer.
func TestEmptyCellsStillRelay(t *testing.T) {
	p := DefaultParams()
	p.Grid = 5
	p.GlobalN = 60 // ~2 tuples per cell; some cells certainly empty
	p.SimTime = 3600
	p.MinQueries, p.MaxQueries = 1, 1
	p.Static = true
	p.Radio.Range = 2000
	p.BFQuorum = 1.0
	p.Seed = 5
	out := Run(p)
	done := 0
	for _, q := range out.Queries {
		if q.Done {
			done++
		}
	}
	if done == 0 {
		t.Fatalf("queries should complete even with empty relations")
	}
}

// The DF ack and subtree timeouts must unblock an originator whose chosen
// neighbour becomes unreachable mid-query. With a tiny subtree timeout the
// query may return partial results but must always terminate.
func TestDFTimeoutsTerminate(t *testing.T) {
	p := DefaultParams()
	p.Grid = 4
	p.GlobalN = 4000
	p.Strategy = DepthFirst
	p.SimTime = 7200
	p.MinQueries, p.MaxQueries = 1, 1
	p.AckTimeout = 2
	p.SubtreeTimeout = 20
	p.Radio.Loss = 0.3 // heavy loss: many DF control messages vanish
	p.Seed = 9
	out := Run(p)
	if out.CompletionRate() == 0 {
		t.Errorf("DF should terminate via timeouts even under 30%% loss")
	}
}

// A fading radio (gray-zone losses at the cell edge) must degrade — not
// break — any strategy.
func TestFadingRadio(t *testing.T) {
	for _, strategy := range allStrategies {
		strategy := strategy
		t.Run(strategy.String(), func(t *testing.T) {
			p := DefaultParams()
			p.Grid = 4
			p.GlobalN = 6000
			p.Strategy = strategy
			p.SimTime = 3600
			p.MinQueries, p.MaxQueries = 1, 1
			p.Radio.FadeMargin = 0.3
			p.Seed = 31
			out := Run(p)
			if len(out.Queries) == 0 {
				t.Fatalf("no queries issued")
			}
			t.Logf("fading: completion %.0f%%, %d gray-zone drops",
				out.CompletionRate()*100, out.Radio.DroppedRange)
		})
	}
}

// Dimension sweep: every supported dimensionality runs end to end.
func TestAllDimensionalities(t *testing.T) {
	for dim := 2; dim <= 5; dim++ {
		p := DefaultParams()
		p.Grid = 3
		p.GlobalN = 3000
		p.Dim = dim
		p.SimTime = 1800
		p.MinQueries, p.MaxQueries = 1, 1
		p.Static = true
		p.Radio.Range = 2000
		out := Run(p)
		if out.CompletionRate() == 0 {
			t.Errorf("dim=%d: no queries completed", dim)
		}
	}
}

// TestDuplicateResultsCountOnce pins the quorum against duplicated
// deliveries: with every frame duplicated, a device's result can reach the
// originator more than once, and each copy used to count toward the BF/SF
// quorum. At its complete stage every completed query must have heard from
// at least quorum distinct devices.
func TestDuplicateResultsCountOnce(t *testing.T) {
	for _, strategy := range []Forwarding{BreadthFirst, SamplingFilter} {
		t.Run(strategy.String(), func(t *testing.T) {
			p := DefaultParams()
			p.Grid = 3
			p.GlobalN = 900
			p.Strategy = strategy
			p.SimTime = 1800
			p.MinQueries, p.MaxQueries = 1, 1
			p.Static = true
			p.Radio.Range = 600
			p.Seed = 11
			p.Faults = &faults.Plan{Duplicate: []faults.Chaos{
				{Window: faults.Window{Start: 0}, Prob: 1, MaxExtra: 1},
			}}
			p.Spans = telemetry.NewSpanLog()
			out := Run(p)
			if out.Faults.Duplicated == 0 {
				t.Fatalf("duplication never fired: %+v", out.Faults)
			}
			quorum := int(math.Ceil(p.BFQuorum * float64(p.NumDevices()-1)))
			completed := 0
			for _, sp := range out.Spans {
				if !sp.Done || sp.Partial {
					continue
				}
				completed++
				senders := map[int32]bool{}
				for _, st := range sp.Stages {
					if st.Kind == telemetry.StageComplete {
						break
					}
					if st.Kind == telemetry.StageResult {
						senders[st.Device] = true
					}
				}
				if len(senders) < quorum {
					t.Errorf("query (%d,%d) completed with %d distinct senders, quorum %d",
						sp.Org, sp.Cnt, len(senders), quorum)
				}
			}
			if completed == 0 {
				t.Fatalf("no query completed")
			}
		})
	}
}

// TestRecallFloorDF is the CI recall gate: on the pinned 5%-loss scenario,
// depth-first forwarding with the retry policy must keep mean recall at or
// above 0.9.
func TestRecallFloorDF(t *testing.T) {
	p := DefaultParams()
	p.Grid = 3
	p.GlobalN = 3000
	p.Strategy = DepthFirst
	p.SimTime = 3600
	p.MinQueries, p.MaxQueries = 1, 1
	p.Static = true
	p.Radio.Range = 2000
	p.Radio.Loss = 0.05
	p.QueryRetries = 3
	p.RetryBackoff = 10
	p.RetryBackoffMax = 60
	p.Recall = true
	p.Seed = 21
	out := Run(p)
	r, ok := out.MeanRecall()
	if !ok {
		t.Fatalf("recall not computed")
	}
	t.Logf("DF at 5%% loss: mean recall %.3f over %d queries (completion %.0f%%)",
		r, len(out.Queries), out.CompletionRate()*100)
	if r < 0.9 {
		t.Errorf("mean recall %.3f below the 0.9 floor", r)
	}
}
