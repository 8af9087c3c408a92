package mobility

import "manetskyline/internal/tuple"

// Field is a struct-of-arrays random-waypoint backend for very large
// fleets. A *Waypoint costs ~5 KB of heap per node — the math/rand source
// alone is a 607-word table — and materializes every leg it has ever
// walked. A Field node is one flat ~88-byte record: an 8-byte splitmix64
// state and the current leg only, since the simulator queries positions at
// the engine clock, which never runs backwards. At 100k nodes that is the
// difference between ~500 MB of trajectory state and ~9 MB.
//
// The trade-offs, stated plainly:
//
//   - Pos is forward-only per node: asking for a time before the current
//     leg clamps to the leg's start. The radio medium only queries the
//     present, so this is invisible there.
//   - Trajectories are NOT bit-compatible with Waypoint — the RNG differs —
//     so in the manet layer only the scale preset (manet.ScaleParams)
//     uses Field, and no golden trace of the paper's scenarios does.
type Field struct {
	cfg   Config
	nodes []fieldNode
}

// fieldNode is one node's trajectory state: RNG + current leg + direction.
type fieldNode struct {
	state        uint64 // splitmix64 state: the whole RNG, 8 bytes
	t0, moveEnd  float64
	t1           float64
	fromX, fromY float64
	toX, toY     float64
	dx, dy       float64
}

// NewField creates an empty field; Add nodes before the simulation starts.
func NewField(cfg Config) *Field {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Field{cfg: cfg}
}

// splitmix64 is the tiny, well-distributed PRNG step used per node
// (Steele et al., "Fast Splittable Pseudorandom Number Generators").
func splitmix64(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4b9fe
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// f64 draws a uniform float64 in [0, 1).
func (n *fieldNode) f64() float64 {
	return float64(splitmix64(&n.state)>>11) / (1 << 53)
}

// Add registers a node starting at a fixed position with its own seed and
// returns its index.
func (f *Field) Add(start tuple.Point, seed int64) int {
	f.nodes = append(f.nodes, fieldNode{state: uint64(seed)})
	i := len(f.nodes) - 1
	n := &f.nodes[i]
	// Scramble once so nearby seeds diverge immediately.
	splitmix64(&n.state)
	f.nextLeg(n, 0, start.X, start.Y)
	return i
}

// AddRandom registers a node starting at a uniform random position.
func (f *Field) AddRandom(seed int64) int {
	f.nodes = append(f.nodes, fieldNode{state: uint64(seed)})
	i := len(f.nodes) - 1
	n := &f.nodes[i]
	splitmix64(&n.state)
	x := n.f64() * f.cfg.Space
	y := n.f64() * f.cfg.Space
	f.nextLeg(n, 0, x, y)
	return i
}

// Len returns the number of registered nodes.
func (f *Field) Len() int { return len(f.nodes) }

// nextLeg replaces n's current leg with a fresh draw from (t0, from).
func (f *Field) nextLeg(n *fieldNode, t0, fromX, fromY float64) {
	toX := n.f64() * f.cfg.Space
	toY := n.f64() * f.cfg.Space
	speed := f.cfg.SpeedMin + n.f64()*(f.cfg.SpeedMax-f.cfg.SpeedMin)
	dx, dy := toX-fromX, toY-fromY
	travel := tuple.Point{X: fromX, Y: fromY}.Dist(tuple.Point{X: toX, Y: toY}) / speed
	n.t0 = t0
	n.moveEnd = t0 + travel
	n.t1 = t0 + travel + f.cfg.Pause
	n.fromX, n.fromY = fromX, fromY
	n.toX, n.toY = toX, toY
	n.dx, n.dy = dx, dy
}

// Pos returns node i's position at time t. Forward-only: times before the
// current leg clamp to the leg start (the engine clock never rewinds, so
// simulation queries never hit the clamp).
func (f *Field) Pos(i int, t float64) tuple.Point {
	n := &f.nodes[i]
	for t > n.t1 {
		f.nextLeg(n, n.t1, n.toX, n.toY)
	}
	if t <= n.t0 {
		return tuple.Point{X: n.fromX, Y: n.fromY}
	}
	if t >= n.moveEnd {
		return tuple.Point{X: n.toX, Y: n.toY} // pausing
	}
	frac := (t - n.t0) / (n.moveEnd - n.t0)
	return tuple.Point{X: n.fromX + frac*n.dx, Y: n.fromY + frac*n.dy}
}

// Model adapts one field node to the Model interface. The adapter is a
// two-word value; boxing it into the interface is the only per-node
// allocation the field layout incurs.
func (f *Field) Model(i int) Model { return fieldModel{f: f, i: int32(i)} }

type fieldModel struct {
	f *Field
	i int32
}

func (m fieldModel) Pos(t float64) tuple.Point { return m.f.Pos(int(m.i), t) }
