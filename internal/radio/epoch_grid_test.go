package radio

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"manetskyline/internal/mobility"
	"manetskyline/internal/sim"
	"manetskyline/internal/tuple"
)

// linearModel moves in a straight line forever: position is an exact
// function of time, so boundary crossings happen at precisely computable
// instants.
type linearModel struct{ x0, y0, vx, vy float64 }

func (m linearModel) Pos(t float64) tuple.Point {
	return tuple.Point{X: m.x0 + m.vx*t, Y: m.y0 + m.vy*t}
}

// teleportModel holds a mutable position: the churn test reassigns it
// between ticks to model nodes that jump arbitrarily far with no speed
// bound.
type teleportModel struct{ p tuple.Point }

func (m *teleportModel) Pos(float64) tuple.Point { return m.p }

// cellNow returns the fine cell of id's current position and whether that
// cell lies outside the box the grid occupied at its epoch.
func cellNow(med *Medium, id NodeID) (cx, cy int32, outside bool) {
	g := &med.grid
	p := med.PosOf(id)
	cx, cy = g.cellCoord(p.X, p.Y)
	lx, ly := cx-g.minX, cy-g.minY
	return cx, cy, lx < 0 || ly < 0 || lx >= g.w || ly >= g.h
}

// TestEpochGridMatchesBruteForce is the property test for the epoch grid
// under a declared speed bound: random waypoint motion, probe times chosen
// so that most probes land *between* rebuilds — exercising buckets frozen
// at the epoch and the expanded probe ring — and every probe must still
// return exactly the brute-force neighbor set, same IDs, same order. Two
// extra nodes walk straight lines, one out of the field and one into it, so
// that between epochs nodes cross cell boundaries, leave the box occupied
// at the epoch, and are probed from outside it.
func TestEpochGridMatchesBruteForce(t *testing.T) {
	for _, tc := range []struct {
		nodes int
		rng   float64
	}{
		{9, 380}, {49, 380},
		{9, 100}, {49, 100}, {100, 100}, {100, 60},
	} {
		t.Run(fmt.Sprintf("nodes=%d/range=%g", tc.nodes, tc.rng), func(t *testing.T) {
			eng := sim.NewEngine(3)
			cfg := DefaultConfig()
			cfg.Range = tc.rng
			mcfg := mobility.DefaultConfig()
			cfg.MaxSpeed = mcfg.SpeedMax // bounded-motion epoch mode
			med := New(eng, cfg)
			for i := 0; i < tc.nodes; i++ {
				med.AddNode(mobility.NewWaypoint(mcfg, int64(i+1)), func(NodeID, Payload) {})
			}
			med.AddNode(linearModel{x0: 60, y0: 60, vx: -6, vy: -6}, func(NodeID, Payload) {})
			med.AddNode(linearModel{x0: -300, y0: 500, vx: 8}, func(NodeID, Payload) {})
			nodes := NodeID(med.NumNodes())
			r := rand.New(rand.NewSource(17))
			pr := rand.New(rand.NewSource(19))
			now := 0.0
			rebuilds := 0
			lastEpoch := -1.0
			epochCell := make([][2]int32, nodes)
			crossed, fromOutside := 0, 0
			for step := 0; step < 120; step++ {
				// Small steps relative to side/maxSpeed keep several probe
				// instants inside each epoch window.
				now += r.Float64() * 2
				eng.Run(now)
				for id := NodeID(0); id < nodes; id++ {
					got := med.NeighborsInto(id, nil)
					want := bruteNeighbors(med, id)
					if !slices.Equal(got, want) {
						t.Fatalf("t=%g node %d: grid %v != brute force %v",
							now, id, got, want)
					}
					checkProbe(t, med, id, want, pr)
				}
				for id := NodeID(0); id < nodes; id++ {
					cx, cy, outside := cellNow(med, id)
					if med.grid.epoch != lastEpoch {
						epochCell[id] = [2]int32{cx, cy} // rebuilt this step: epoch == now
					} else if epochCell[id] != [2]int32{cx, cy} {
						crossed++
					}
					if outside {
						fromOutside++
					}
				}
				if med.grid.epoch != lastEpoch {
					lastEpoch = med.grid.epoch
					rebuilds++
				}
			}
			if crossed == 0 || fromOutside == 0 {
				t.Fatalf("no probe of a node that crossed a cell boundary since the epoch (%d) or from outside the epoch's box (%d)",
					crossed, fromOutside)
			}
			// The point of the epoch grid: far fewer rebuilds than probe
			// timesteps. If this fires, the grid fell back to per-timestep
			// rebuilds and the test stopped exercising stale buckets.
			if rebuilds >= 120 {
				t.Fatalf("epoch grid rebuilt on every timestep (%d rebuilds)", rebuilds)
			}
		})
	}
}

// TestEpochGridBoundaryCrossing pins the frozen buckets exactly at cell
// boundaries: nodes ride straight lines that cross fine-cell edges at known
// instants, and the probe set is checked just before, at, and just after
// each crossing. Node 4 crosses x=0 at t=2.5, which is also the edge of the
// box occupied at the epoch: from then until the rebuild it has a neighbour
// and is probed from a cell the grid does not have.
func TestEpochGridBoundaryCrossing(t *testing.T) {
	eng := sim.NewEngine(5)
	cfg := DefaultConfig()
	cfg.Range = 100
	cfg.MaxSpeed = 10
	med := New(eng, cfg)
	// Node 0 starts just left of the x=100 cell edge and drifts right at
	// 1 m/s: it crosses at t=5. The others sit still on both sides.
	med.AddNode(linearModel{x0: 95, y0: 50, vx: 1}, func(NodeID, Payload) {})
	med.AddNode(linearModel{x0: 30, y0: 50}, func(NodeID, Payload) {})
	med.AddNode(linearModel{x0: 180, y0: 50}, func(NodeID, Payload) {})
	med.AddNode(linearModel{x0: 205, y0: 150, vy: -1}, func(NodeID, Payload) {}) // crosses y=100 at t=50
	med.AddNode(linearModel{x0: 5, y0: 50, vx: -2}, func(NodeID, Payload) {})
	pr := rand.New(rand.NewSource(19))
	for _, now := range []float64{0, 2.4, 2.5, 2.6, 4.5, 5, 5.5, 9.9, 20, 49.5, 50, 50.5, 80} {
		eng.Run(now)
		for id := NodeID(0); id < 5; id++ {
			got := med.NeighborsInto(id, nil)
			want := bruteNeighbors(med, id)
			if !slices.Equal(got, want) {
				t.Fatalf("t=%g node %d: grid %v != brute force %v", now, id, got, want)
			}
			checkProbe(t, med, id, want, pr)
		}
		if now > 2.5 && now < 10 {
			if _, _, outside := cellNow(med, 4); !outside || med.grid.epoch != 0 {
				t.Fatalf("t=%g: node 4 should be outside the box of epoch 0 (epoch %g)", now, med.grid.epoch)
			}
			if got := med.NeighborsInto(4, nil); !slices.Contains(got, 1) {
				t.Fatalf("t=%g: node 4 probed from outside the box sees %v, want node 1 among them", now, got)
			}
		}
	}
}

// TestEpochGridChurnTeleport is the churn test: every tick, 10% of the
// nodes teleport to a uniformly random point — motion with no speed bound,
// which is exactly the case MaxSpeed=0 (unknown) must stay exact for by
// rebuilding whenever the clock moves.
func TestEpochGridChurnTeleport(t *testing.T) {
	const (
		nodes = 200
		space = 2000.0
		ticks = 50
	)
	eng := sim.NewEngine(9)
	cfg := DefaultConfig()
	cfg.Range = 150
	cfg.MaxSpeed = 0 // unknown motion: teleports allowed
	med := New(eng, cfg)
	r := rand.New(rand.NewSource(23))
	pr := rand.New(rand.NewSource(19))
	models := make([]*teleportModel, nodes)
	for i := range models {
		models[i] = &teleportModel{p: tuple.Point{X: r.Float64() * space, Y: r.Float64() * space}}
		med.AddNode(models[i], func(NodeID, Payload) {})
	}
	for tick := 1; tick <= ticks; tick++ {
		// Teleport 10% of the fleet, then advance the clock so the medium
		// sees the new positions as a fresh timestep.
		for k := 0; k < nodes/10; k++ {
			m := models[r.Intn(nodes)]
			m.p = tuple.Point{X: r.Float64() * space, Y: r.Float64() * space}
		}
		eng.Run(float64(tick))
		for id := NodeID(0); id < nodes; id++ {
			got := med.NeighborsInto(id, nil)
			want := bruteNeighbors(med, id)
			if !slices.Equal(got, want) {
				t.Fatalf("tick %d node %d: grid %v != brute force %v", tick, id, got, want)
			}
			checkProbe(t, med, id, want, pr)
		}
	}
}

// TestEpochGridStatic checks the static declaration (MaxSpeed < 0): the
// grid is built exactly once, and probes at later times still match brute
// force because static positions never invalidate it.
func TestEpochGridStatic(t *testing.T) {
	eng := sim.NewEngine(11)
	cfg := DefaultConfig()
	cfg.Range = 120
	cfg.MaxSpeed = -1
	med := New(eng, cfg)
	r := rand.New(rand.NewSource(31))
	pr := rand.New(rand.NewSource(19))
	const nodes = 100
	for i := 0; i < nodes; i++ {
		med.AddNode(mobility.Static{X: r.Float64() * 1000, Y: r.Float64() * 1000},
			func(NodeID, Payload) {})
	}
	var firstEpoch float64 = math.NaN()
	for _, now := range []float64{0, 10, 100, 1000, 5000} {
		eng.Run(now)
		for id := NodeID(0); id < nodes; id++ {
			got := med.NeighborsInto(id, nil)
			want := bruteNeighbors(med, id)
			if !slices.Equal(got, want) {
				t.Fatalf("t=%g node %d: grid %v != brute force %v", now, id, got, want)
			}
			checkProbe(t, med, id, want, pr)
		}
		if math.IsNaN(firstEpoch) {
			firstEpoch = med.grid.epoch
		} else if med.grid.epoch != firstEpoch {
			t.Fatalf("static grid rebuilt: epoch %g -> %g", firstEpoch, med.grid.epoch)
		}
	}
}
