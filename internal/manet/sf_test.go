package manet

import (
	"math/rand"
	"testing"
	"testing/quick"

	"manetskyline/internal/core"
	"manetskyline/internal/faults"
	"manetskyline/internal/gen"
	"manetskyline/internal/skyline"
)

// TestSFDistributedEqualsCentralizedStatic is the SF end-to-end correctness
// invariant: in a static, fully connected, loss-free network, every
// completed sampling-filter query must return exactly the centralized
// constrained skyline, under every estimation mode.
func TestSFDistributedEqualsCentralizedStatic(t *testing.T) {
	for _, mode := range []core.Estimation{core.Exact, core.Over, core.Under} {
		p := smallParams(SamplingFilter)
		p.Mode = mode
		p.BFQuorum = 1.0 // demand every device's survivors for exactness
		out := Run(p)
		if len(out.Queries) == 0 {
			t.Fatalf("%v: no queries issued", mode)
		}
		checked := 0
		for _, q := range out.Queries {
			if !q.Done {
				continue
			}
			checked++
			orgStart := gen.CellRect(int(q.Org)/p.Grid, int(q.Org)%p.Grid, p.Grid, p.Space).Center()
			want := groundTruth(out, q, orgStart, p.QueryDist)
			if !skyline.SetEqual(q.Skyline, want) {
				t.Errorf("%v query %v: result %d tuples, centralized %d",
					mode, q.Key, len(q.Skyline), len(want))
			}
		}
		if checked == 0 {
			t.Errorf("%v: no SF queries completed", mode)
		}
	}
}

// TestQuickCrossStrategyDifferential is the cross-strategy differential
// harness: on random fault-free scenarios, BF, DF, and SF must each return
// exactly the centralized constrained skyline for every completed query —
// and therefore agree with each other on every query key they both
// completed, which the test also checks directly.
func TestQuickCrossStrategyDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized differential sweep is not short")
	}
	f := func(seed uint16, nRaw uint16, distRaw uint8) bool {
		skylines := make(map[Forwarding]map[core.QueryKey]*QueryMetrics)
		for _, strategy := range allStrategies {
			p := DefaultParams()
			p.Grid = 3
			p.GlobalN = 300 + int(nRaw%1200)
			p.Dist = gen.Distribution(distRaw % 3)
			p.Strategy = strategy
			p.SimTime = 3600
			p.MinQueries, p.MaxQueries = 1, 1
			p.BFQuorum = 1.0
			p.Static = true
			p.KeepSkylines = true
			p.Radio.Range = 2000
			p.Seed = int64(seed) + 1
			out := Run(p)
			byKey := make(map[core.QueryKey]*QueryMetrics)
			for _, q := range out.Queries {
				if !q.Done {
					continue
				}
				byKey[q.Key] = q
				orgStart := gen.CellRect(int(q.Org)/p.Grid, int(q.Org)%p.Grid, p.Grid, p.Space).Center()
				want := groundTruth(out, q, orgStart, p.QueryDist)
				if !skyline.SetEqual(q.Skyline, want) {
					t.Logf("%v seed=%d query %v: %d tuples vs centralized %d",
						strategy, seed, q.Key, len(q.Skyline), len(want))
					return false
				}
			}
			if len(byKey) == 0 {
				t.Logf("%v seed=%d: no queries completed", strategy, seed)
				return false
			}
			skylines[strategy] = byKey
		}
		// Strategies agree with each other wherever they completed the same
		// query (the schedule is seed-identical; busy windows may differ).
		for key, sfq := range skylines[SamplingFilter] {
			for _, other := range []Forwarding{BreadthFirst, DepthFirst} {
				if oq, ok := skylines[other][key]; ok {
					if !skyline.SetEqual(sfq.Skyline, oq.Skyline) {
						t.Logf("seed=%d query %v: SF %d tuples, %v %d tuples",
							seed, key, len(sfq.Skyline), other, len(oq.Skyline))
						return false
					}
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 4, Rand: rand.New(rand.NewSource(17))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestSFUnderFaultPlans runs SF against the builtin fault plans: whatever
// comes back must be internally consistent (in-range, mutually
// non-dominated — the "result ⊆ candidate set" half of correctness that
// survives message loss), and with the retry policy mean recall must stay
// above a conservative floor.
func TestSFUnderFaultPlans(t *testing.T) {
	for _, plan := range []string{"crash", "partition", "chaos"} {
		t.Run(plan, func(t *testing.T) {
			p := DefaultParams()
			p.Grid = 3
			p.GlobalN = 3000
			p.Strategy = SamplingFilter
			p.SimTime = 3600
			p.MinQueries, p.MaxQueries = 1, 1
			p.Static = true
			p.Radio.Range = 2000
			p.QueryRetries = 3
			p.RetryBackoff = 10
			p.RetryBackoffMax = 60
			p.QueryDeadline = 900
			p.Recall = true
			p.Seed = 23
			fp, err := faults.Named(plan, p.NumDevices(), p.SimTime)
			if err != nil {
				t.Fatal(err)
			}
			p.Faults = fp
			out := Run(p)
			if len(out.Queries) == 0 {
				t.Fatalf("no queries issued")
			}
			for _, q := range out.Queries {
				for i, a := range q.Skyline {
					for j, b := range q.Skyline {
						if i != j && a.Dominates(b) {
							t.Fatalf("result contains dominated tuple")
						}
					}
					if !q.Pos.WithinDist(a.Pos(), q.D) {
						t.Fatalf("result leaked out-of-range tuple")
					}
				}
			}
			r, ok := out.MeanRecall()
			if !ok {
				t.Fatalf("recall not computed")
			}
			t.Logf("SF under %q: completion %.0f%%, recall %.3f", plan, out.CompletionRate()*100, r)
			if r < 0.5 {
				t.Errorf("mean recall %.3f below the 0.5 fault floor", r)
			}
		})
	}
}

// TestRecallFloorSF is the SF CI recall gate, matching the DF gate: on the
// pinned 5%-loss scenario with the retry policy, mean recall must stay at
// or above 0.9.
func TestRecallFloorSF(t *testing.T) {
	p := DefaultParams()
	p.Grid = 3
	p.GlobalN = 3000
	p.Strategy = SamplingFilter
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
	t.Logf("SF at 5%% loss: mean recall %.3f over %d queries (completion %.0f%%)",
		r, len(out.Queries), out.CompletionRate()*100)
	if r < 0.9 {
		t.Errorf("mean recall %.3f below the 0.9 floor", r)
	}
}

// TestSFBytesBeatBF is the communication-optimality claim on the bench_bf and
// bench_sf rows (the paper's 10×10 mobile grid): SF must put fewer query-layer
// bytes on the air than BF. In a multi-hop network BF's cost is dominated
// by shipping every device's reduced skyline home; SF's extra flood round
// buys a filter set strong enough that mostly-empty survivor messages
// travel instead.
func TestSFBytesBeatBF(t *testing.T) {
	t.Parallel()
	bytesFor := func(row string) (n int) {
		for _, q := range rowRun(t, row, false).out.Queries {
			n += q.Bytes
		}
		return n
	}
	bf, sf := bytesFor("bench_bf"), bytesFor("bench_sf")
	t.Logf("query bytes on air: BF=%d SF=%d (%.1f%%)", bf, sf, 100*float64(sf)/float64(bf))
	if sf >= bf {
		t.Errorf("SF put %d query bytes on air, BF only %d", sf, bf)
	}
}
