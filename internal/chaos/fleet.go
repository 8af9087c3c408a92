package chaos

import (
	"fmt"
	"sync"
	"time"

	"manetskyline/internal/core"
	"manetskyline/internal/gen"
	"manetskyline/internal/skyline"
	"manetskyline/internal/tcp"
	"manetskyline/internal/telemetry"
	"manetskyline/internal/tuple"
)

// fleet is the live network both soaks run: Grid×Grid real tcp.Peers, one
// per cell of a grid-partitioned dataset, each wired to its 4 grid
// neighbours through one chaos Router that applies the plan. The plan's
// outages are enacted for real: a peer is closed when its window opens
// (its heartbeats stop and the lease decays honestly) and restarted — new
// port, same identity and data — when a bounded window closes.
type fleet struct {
	cfg       SoakConfig
	schema    tuple.Schema
	parts     [][]tuple.Tuple
	positions map[int]tuple.Point
	router    *Router
	timers    []*time.Timer
	// spans holds one log per device when cfg.Trace is set; a restarted
	// peer keeps appending to its device's log.
	spans []*telemetry.SpanLog
	// stable lists, in ID order, the nodes no outage ever touches.
	stable []int

	mu     sync.Mutex
	peers  []*tcp.Peer
	alive  []bool
	closed bool
}

// newFleet starts the fleet of cfg (its Grid, Tuples, Seed, Plan, Horizon,
// Wall, Peer, Extras, Trace and Flight) and arms the outage timers. The
// plan clock starts now.
func newFleet(cfg SoakConfig) (*fleet, error) {
	n := cfg.Grid * cfg.Grid
	gcfg := gen.DefaultConfig(cfg.Tuples, 2, gen.Independent, cfg.Seed)
	f := &fleet{
		cfg:       cfg,
		schema:    gcfg.Schema(),
		parts:     gen.GridPartition(gen.Generate(gcfg), cfg.Grid, gcfg.Space),
		positions: make(map[int]tuple.Point, n),
		peers:     make([]*tcp.Peer, n),
		alive:     make([]bool, n),
	}
	for i := 0; i < n; i++ {
		f.positions[i] = gen.CellRect(i/cfg.Grid, i%cfg.Grid, cfg.Grid, gcfg.Space).Center()
	}
	if cfg.Trace {
		f.spans = make([]*telemetry.SpanLog, n)
		for i := range f.spans {
			f.spans[i] = telemetry.NewSpanLog()
		}
	}
	scale := cfg.Horizon / cfg.Wall.Seconds()
	f.router = NewRouter(tcp.NewDirectory(), cfg.Plan, Options{
		Scale:     scale,
		Positions: f.positions,
		Seed:      cfg.Seed,
		Extras:    cfg.Extras,
	})
	for i := 0; i < n; i++ {
		if err := f.spawn(i); err != nil {
			f.close()
			return nil, err
		}
	}

	wall := func(planTime float64) time.Duration {
		return time.Duration(planTime / scale * float64(time.Second))
	}
	unstable := make(map[int]bool)
	for _, o := range cfg.Plan.Outages {
		o := o
		if o.Node < 0 || o.Node >= n {
			continue
		}
		unstable[o.Node] = true
		f.timers = append(f.timers, time.AfterFunc(wall(o.Start), func() {
			f.mu.Lock()
			p := f.peers[o.Node]
			f.peers[o.Node] = nil
			f.alive[o.Node] = false
			f.mu.Unlock()
			if p != nil {
				p.Close()
			}
		}))
		if o.End > 0 {
			f.timers = append(f.timers, time.AfterFunc(wall(o.End), func() {
				f.mu.Lock()
				defer f.mu.Unlock()
				if !f.closed && f.peers[o.Node] == nil {
					f.spawn(o.Node)
				}
			}))
		}
	}
	for i := 0; i < n; i++ {
		if !unstable[i] {
			f.stable = append(f.stable, i)
		}
	}
	if len(f.stable) == 0 {
		f.close()
		return nil, fmt.Errorf("chaos: plan crashes every node; no stable peer")
	}
	return f, nil
}

// spawn starts peer i and marks it alive. The caller holds mu, or no other
// goroutine can yet reach the fleet.
func (f *fleet) spawn(i int) error {
	pcfg := f.cfg.Peer
	if f.spans != nil {
		pcfg.Spans = f.spans[i]
	}
	if f.cfg.Flight != nil {
		pcfg.Flight = f.cfg.Flight
	}
	p, err := tcp.NewPeer(core.DeviceID(i), f.parts[i], f.schema, core.Under,
		true, f.positions[i], f.router.View(core.DeviceID(i)), pcfg)
	if err != nil {
		return fmt.Errorf("chaos: peer %d: %w", i, err)
	}
	grid := f.cfg.Grid
	r, c := i/grid, i%grid
	if r > 0 {
		p.AddNeighbor(core.DeviceID(i - grid))
	}
	if r < grid-1 {
		p.AddNeighbor(core.DeviceID(i + grid))
	}
	if c > 0 {
		p.AddNeighbor(core.DeviceID(i - 1))
	}
	if c < grid-1 {
		p.AddNeighbor(core.DeviceID(i + 1))
	}
	f.peers[i] = p
	f.alive[i] = true
	return nil
}

// snapshot reads the fleet at one instant: peer i (nil while it is down),
// how many peers are alive, and the liveness-aware oracle's input — the
// site-deduplicated union of the alive peers' datasets. A crashed device's
// tuples are gone and no protocol can recover them, but a peer that is
// merely partitioned stays in the union.
func (f *fleet) snapshot(i int) (p *tcp.Peer, alive int, union []tuple.Tuple) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var parts [][]tuple.Tuple
	for j, up := range f.alive {
		if up {
			parts = append(parts, f.parts[j])
		}
	}
	return f.peers[i], len(parts), skyline.UnionBySite(parts...)
}

// close stops the outage timers, then every peer, then the router.
func (f *fleet) close() {
	for _, t := range f.timers {
		t.Stop()
	}
	f.mu.Lock()
	f.closed = true
	peers := append([]*tcp.Peer(nil), f.peers...)
	f.mu.Unlock()
	for _, p := range peers {
		if p != nil {
			p.Close()
		}
	}
	f.router.Close()
}
