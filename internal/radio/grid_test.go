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

// checkProbe checks FirstNeighborExcept for node id against want, its
// brute-force neighbour list: for every except set exceptSets draws, the
// probe must return the first entry of want not in except, or -1, and leave
// the inRange bitset all zero. It reports whether the probe took the
// full-coverage scan rather than the gathered grid.
func checkProbe(t *testing.T, med *Medium, id NodeID, want []NodeID, r *rand.Rand) (full bool) {
	t.Helper()
	_, _, _, full = med.neighborCandidates(id)
	for _, except := range exceptSets(r, id, want, NodeID(med.NumNodes())) {
		first := NodeID(-1)
		for _, nb := range want {
			if _, tried := slices.BinarySearch(except, nb); !tried {
				first = nb
				break
			}
		}
		if got := med.FirstNeighborExcept(id, except); got != first {
			t.Fatalf("t=%g node %d except %v: probe %d, brute force %d (neighbours %v, full %v)",
				med.eng.Now(), id, except, got, first, want, full)
		}
		if w := slices.IndexFunc(med.inRange, func(w uint64) bool { return w != 0 }); w >= 0 {
			t.Fatalf("t=%g node %d except %v: inRange word %d nonzero after the probe",
				med.eng.Now(), id, except, w)
		}
	}
	return full
}

// exceptSets draws the ascending except sets a probe is checked with:
// empty; every neighbour; id with a prefix of the neighbours, as a walk
// part-way through them has tried; and a random subset of the neighbours
// mixed with id, random node IDs (mostly out of radio range) and IDs no
// node has.
func exceptSets(r *rand.Rand, id NodeID, nbrs []NodeID, n NodeID) [][]NodeID {
	prefix := append([]NodeID{id}, nbrs[:r.Intn(len(nbrs)+1)]...)
	mixed := []NodeID{id, -3, n, n + 70}
	for _, nb := range nbrs {
		if r.Intn(2) == 0 {
			mixed = append(mixed, nb)
		}
	}
	for k := 0; k < 3; k++ {
		mixed = append(mixed, NodeID(r.Intn(int(n))))
	}
	sets := [][]NodeID{nil, slices.Clone(nbrs), prefix, mixed}
	for i := range sets {
		slices.Sort(sets[i])
		sets[i] = slices.Compact(sets[i])
	}
	return sets
}

// TestNeighborsGridMatchesBruteForce drives random waypoint motion to random
// times and checks, at each instant and for every node, that the grid probe
// returns exactly the brute-force neighbor set — same IDs, same order —
// and the first-untried probe its first entry outside each except set. The
// small range exercises the sparse 3×3 probe (many occupied cells); the
// default 380 m range exercises the dense full-coverage scan, and its
// devices near the field's edge the gathered grid as well.
func TestNeighborsGridMatchesBruteForce(t *testing.T) {
	paths := map[bool]int{}
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
			pr := rand.New(rand.NewSource(19))
			now := 0.0
			for step := 0; step < 40; step++ {
				now += r.Float64() * 40
				eng.Run(now)
				for id := NodeID(0); id < NodeID(tc.nodes); id++ {
					got := med.NeighborsInto(id, nil)
					want := bruteNeighbors(med, id)
					if !slices.Equal(got, want) {
						t.Fatalf("t=%g node %d: grid %v != brute force %v",
							now, id, got, want)
					}
					paths[checkProbe(t, med, id, want, pr)]++
				}
			}
		})
	}
	if !t.Failed() && (paths[true] == 0 || paths[false] == 0) {
		t.Fatalf("probes took the full-coverage scan %d times and the gathered grid %d times, want both",
			paths[true], paths[false])
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

// TestNeighborsIntoZeroAllocs pins the steady-state neighbor query, the
// first-untried probe and the broadcast path at zero heap allocations, in the style of the localsky
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
		except := []NodeID{-1, 3, 17, 40, 41, 99, 150}
		probe := func() {
			for id := NodeID(0); id < 100; id++ {
				med.FirstNeighborExcept(id, except)
			}
		}
		probe()
		if allocs := testing.AllocsPerRun(20, probe); allocs != 0 {
			t.Errorf("range %g: FirstNeighborExcept allocated %.1f objects per 100 probes, want 0", rng, allocs)
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
