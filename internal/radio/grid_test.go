package radio

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"manetskyline/internal/mobility"
	"manetskyline/internal/sim"
)

// bruteNeighbors is the reference O(m) neighbor scan the grid must match
// exactly: every other node within range, in ascending ID order.
func bruteNeighbors(med *Medium, id NodeID) []NodeID {
	var out []NodeID
	p := med.PosOf(id)
	for other := NodeID(0); other < NodeID(med.NumNodes()); other++ {
		if other == id {
			continue
		}
		if p.WithinDist(med.PosOf(other), med.Config().Range) {
			out = append(out, other)
		}
	}
	return out
}

// TestNeighborsGridMatchesBruteForce drives random waypoint motion to random
// times and checks, at each instant and for every node, that the grid probe
// returns exactly the brute-force neighbor set — same IDs, same order. The
// small range exercises the sparse 3×3 probe (many occupied cells); the
// default 380 m range exercises the dense full-coverage scan.
func TestNeighborsGridMatchesBruteForce(t *testing.T) {
	for _, tc := range []struct {
		nodes int
		rng   float64
	}{
		{9, 380}, {49, 380}, {100, 380},
		{9, 100}, {49, 100}, {100, 100},
	} {
		t.Run(fmt.Sprintf("nodes=%d/range=%g", tc.nodes, tc.rng), func(t *testing.T) {
			eng := sim.NewEngine(3)
			cfg := DefaultConfig()
			cfg.Range = tc.rng
			med := New(eng, cfg)
			mcfg := mobility.DefaultConfig()
			for i := 0; i < tc.nodes; i++ {
				med.AddNode(mobility.NewWaypoint(mcfg, int64(i+1)), func(NodeID, Payload) {})
			}
			r := rand.New(rand.NewSource(17))
			now := 0.0
			for step := 0; step < 40; step++ {
				now += r.Float64() * 40
				eng.Run(now)
				for id := NodeID(0); id < NodeID(tc.nodes); id++ {
					got := med.Neighbors(id)
					want := bruteNeighbors(med, id)
					if !slices.Equal(got, want) {
						t.Fatalf("t=%g node %d: grid %v != brute force %v",
							now, id, got, want)
					}
				}
			}
		})
	}
}

// waypointMedium builds a medium with m random-waypoint nodes
// mid-trajectory, the configuration the Figure 8-12 sweeps stress (9-100
// devices moving in the 1 km² field).
func waypointMedium(m int, cfg Config) (*sim.Engine, *Medium) {
	eng := sim.NewEngine(7)
	med := New(eng, cfg)
	mcfg := mobility.DefaultConfig()
	for i := 0; i < m; i++ {
		med.AddNode(mobility.NewWaypoint(mcfg, int64(i+1)), func(NodeID, Payload) {})
	}
	eng.Run(100) // advance the clock so every node is mid-trajectory
	return eng, med
}

// TestNeighborsIntoZeroAllocs pins the steady-state neighbor query and
// broadcast paths at zero heap allocations, in the style of the localsky
// TestHybridSkylineScratchZeroAllocs gate: one warm-up round sizes every
// buffer — the ID bitset at its high-water size, once — then each further
// operation must allocate nothing. Probing from every node takes both the
// full-coverage scan (a centre cell at 380 m) and the gather-and-sweep.
func TestNeighborsIntoZeroAllocs(t *testing.T) {
	for _, rng := range []float64{380, 100} {
		cfg := DefaultConfig()
		cfg.Range = rng
		eng, med := waypointMedium(100, cfg)
		var buf []NodeID
		all := func() {
			for id := NodeID(0); id < 100; id++ {
				buf = med.NeighborsInto(id, buf[:0])
			}
		}
		all() // warm up buffers
		if allocs := testing.AllocsPerRun(20, all); allocs != 0 {
			t.Errorf("range %g: NeighborsInto allocated %.1f objects per 100 probes, want 0", rng, allocs)
		}

		p := fakePayload(64)
		med.Broadcast(0, p)
		eng.RunAll() // warm up the delivery pool and event queue
		allocs := testing.AllocsPerRun(20, func() {
			med.Broadcast(0, p)
			eng.RunAll()
		})
		if allocs != 0 {
			t.Errorf("range %g: Broadcast+deliver allocated %.1f objects/op, want 0", rng, allocs)
		}
	}
}
