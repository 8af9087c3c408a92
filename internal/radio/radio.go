// Package radio models the wireless medium of the MANET simulation: a
// unit-disk 802.11-style broadcast channel in the spirit of the SWANS radio
// layer. Nodes hear each other within a fixed transmission range; frames
// take size/bandwidth transmission time plus a fixed per-frame overhead;
// each node serializes its own transmissions (a half-duplex radio); frames
// are lost when the receiver moves out of range mid-flight or by an
// independent loss probability that models contention and fading.
//
// Node state is struct-of-arrays: positions, busy horizons, handlers, and
// grid cells live in flat slices indexed by NodeID rather than per-node
// heap objects, so a 100k-node medium is a handful of large allocations
// the garbage collector scans in O(arrays), not O(nodes).
//
// Spatial queries run on an epoch-rebuilt two-level grid (see grid.go)
// whose probes are exact: a neighbor query touches only the cells a true
// neighbor could occupy given the configured speed bound. In-flight frames
// are free-listed delivery records referenced from compact scheduler
// events (sim.Kind), so a 50k-receiver flood schedules fixed-size value
// events instead of materializing closures per hop.
package radio

import (
	"fmt"
	"math/bits"
	"math/rand"

	"manetskyline/internal/mobility"
	"manetskyline/internal/sim"
	"manetskyline/internal/tuple"
)

// NodeID identifies a radio node; IDs are dense and start at zero.
type NodeID int

// Payload is any message carried in a frame; only its serialized size
// matters to the medium.
type Payload interface {
	// SizeBytes returns the payload's wire size.
	SizeBytes() int
}

// Handler receives delivered frames.
type Handler func(from NodeID, p Payload)

// FaultInjector is the hook surface for scripted fault schedules: the
// medium asks these questions and never sees the plan format behind them
// (internal/faults.Eval answers them). Implementations must be
// deterministic functions of their own seeded state: they are consulted on
// the transmit and delivery paths but must never draw from the medium's
// random source, so a medium without an injector runs byte-identically to
// one with a nil injector. Node IDs are plain ints, as in a fault plan.
type FaultInjector interface {
	// NodeDown reports whether the node is silenced (crashed or paused) at
	// time now: it neither transmits nor receives.
	NodeDown(id int, now float64) bool
	// CutLink decides at delivery time whether the frame from → to is
	// removed by the schedule (downed receiver, partitions, link/region
	// loss windows).
	CutLink(from, to int, now float64, fromPos, toPos tuple.Point) bool
	// TxEffects perturbs one transmission at now: extraDelay postpones the
	// nominal delivery and each dupDelays entry schedules one duplicate
	// copy that many seconds after it. The slice may be reused across
	// calls.
	TxEffects(now float64) (extraDelay float64, dupDelays []float64)
}

// headerBytes is added to every payload (MAC + network headers).
const headerBytes = 48

// Config parameterizes the medium.
type Config struct {
	// Range is the transmission radius in meters (802.11b outdoors ≈ 250).
	Range float64
	// Bandwidth is the channel rate in bits per second (802.11b ≈ 2 Mb/s,
	// the figure the paper cites when contrasting P2P links with cellular).
	Bandwidth float64
	// Overhead is the fixed per-frame latency in seconds: MAC contention,
	// preamble, propagation.
	Overhead float64
	// Loss is an independent per-frame loss probability.
	Loss float64
	// FadeMargin models fading at the cell edge: reception probability
	// falls linearly from 1 at (1−FadeMargin)·Range to 0 at Range, instead
	// of the unit disk's hard cut. Zero keeps the deterministic unit disk.
	// Neighbour discovery still uses the full Range (a faded link exists,
	// it is just unreliable) — the gray-zone effect real 802.11 radios
	// exhibit.
	FadeMargin float64
	// MaxSpeed declares the fastest any node moves, enabling epoch-based
	// grid maintenance: 0 (the zero value) means unknown — the grid
	// rebuilds whenever the clock moves, exact for arbitrary motion
	// including teleports; > 0 is a bound in m/s — the grid rebuilds only
	// when accumulated drift could exceed one cell and probes expand their
	// ring to stay exact; < 0 declares all nodes static — the grid is
	// built once and never again. Neighbor sets are identical in every
	// mode; only the maintenance cost differs.
	MaxSpeed float64
	// LinkQueue, when positive, switches broadcast delivery to per-link
	// transmit modeling: each receiver gets its own delivery event gated by
	// a per-receiver busy horizon, and a frame whose queueing delay at a
	// receiver would exceed LinkQueue airtimes is dropped (DroppedQueue) —
	// the bounded send-queue behavior of real link layers. Zero keeps the
	// legacy shared delivery event with no receiver-side contention.
	LinkQueue int
}

// DefaultConfig returns 802.11b-like settings. The 380 m range matches the
// default free-space/two-ray radio of JiST/SWANS, the simulator the paper
// used; 250 m (the ns-2 convention) leaves 9-device networks in a 1 km²
// field partitioned almost all the time.
func DefaultConfig() Config {
	return Config{
		Range:     380,
		Bandwidth: 2e6,
		Overhead:  0.002,
		Loss:      0,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Range <= 0 {
		return fmt.Errorf("radio: non-positive range %g", c.Range)
	}
	if c.Bandwidth <= 0 {
		return fmt.Errorf("radio: non-positive bandwidth %g", c.Bandwidth)
	}
	if c.Overhead < 0 {
		return fmt.Errorf("radio: negative overhead %g", c.Overhead)
	}
	if c.Loss < 0 || c.Loss >= 1 {
		return fmt.Errorf("radio: loss probability %g outside [0,1)", c.Loss)
	}
	if c.FadeMargin < 0 || c.FadeMargin > 1 {
		return fmt.Errorf("radio: fade margin %g outside [0,1]", c.FadeMargin)
	}
	if c.LinkQueue < 0 {
		return fmt.Errorf("radio: negative link queue %d", c.LinkQueue)
	}
	return nil
}

// Counters aggregates medium activity. The query-message counts of the
// paper's Figure 12 are derived from these by the manet layer.
type Counters struct {
	// FramesSent counts transmissions (a broadcast is one transmission);
	// Broadcasts and Unicasts split it by kind.
	FramesSent int
	Broadcasts int
	Unicasts   int
	// Receptions counts successful frame deliveries.
	Receptions int
	// DroppedRange counts frames lost because the receiver left range
	// between send and delivery.
	DroppedRange int
	// DroppedLoss counts frames lost to the random loss process.
	DroppedLoss int
	// DroppedFault counts frames removed by an attached fault injector
	// (outages, severed links, partitions).
	DroppedFault int
	// DroppedQueue counts frames dropped at a receiver's bounded link
	// queue (LinkQueue mode only).
	DroppedQueue int
	// DupedFrames counts duplicate deliveries a fault injector scheduled.
	DupedFrames int
	// BytesSent counts transmitted bytes including headers.
	BytesSent int
	// NeighborQueries and NeighborScanned are the spatial grid's probe
	// cost: probes issued and candidate nodes distance-checked.
	NeighborQueries int
	NeighborScanned int
}

// Medium is the shared wireless channel.
type Medium struct {
	eng *sim.Engine
	cfg Config
	rng *rand.Rand

	// Node state, struct-of-arrays indexed by NodeID.
	mobs      []mobility.Model
	handlers  []Handler
	busyUntil []float64 // transmit serialization horizon per sender
	posAt     []float64 // engine time of the position memo; -1 = never
	posX      []float64
	posY      []float64
	rxBusy    []float64 // receive horizon per receiver (LinkQueue mode)

	grid    grid
	scratch []int32  // candidate buffer for grid probes
	inRange []uint64 // bitset over node IDs, all zero between probes

	// In-flight frames are free-listed records referenced by slot index
	// from compact scheduler events, so steady-state transmission
	// allocates nothing and the event queue carries no pointers.
	deliverKind sim.Kind // a = slot: deliver to every captured receiver
	linkKind    sim.Kind // a = slot, b = receiver: per-link delivery
	inflight    []delivery
	freeSlots   []uint32

	// Counters is exported for metric collection; reset between scenarios
	// if per-run deltas are needed.
	Counters Counters

	// faults is the optional fault injector (nil = fault-free medium).
	faults FaultInjector
}

// delivery is one in-flight frame: the captured receiver list plus, in
// LinkQueue mode, a reference count of per-link events still to fire.
type delivery struct {
	from NodeID
	refs int32
	to   []NodeID
	p    Payload
}

// New creates an empty medium on the given engine.
func New(eng *sim.Engine, cfg Config) *Medium {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	m := &Medium{
		eng: eng,
		cfg: cfg,
		rng: rand.New(rand.NewSource(eng.RNG().Int63())),
	}
	m.grid.side = cfg.Range
	m.grid.maxSpeed = cfg.MaxSpeed
	m.deliverKind = eng.RegisterKind(m.runDelivery)
	m.linkKind = eng.RegisterKind(m.runLinkDelivery)
	return m
}

// AddNode registers a node with its mobility model and frame handler and
// returns its ID.
func (m *Medium) AddNode(mob mobility.Model, h Handler) NodeID {
	if h == nil {
		panic("radio: nil handler")
	}
	id := NodeID(len(m.mobs))
	m.mobs = append(m.mobs, mob)
	m.handlers = append(m.handlers, h)
	m.busyUntil = append(m.busyUntil, 0)
	m.posAt = append(m.posAt, -1)
	m.posX = append(m.posX, 0)
	m.posY = append(m.posY, 0)
	m.rxBusy = append(m.rxBusy, 0)
	m.grid.built = false
	return id
}

// NumNodes returns the number of registered nodes.
func (m *Medium) NumNodes() int { return len(m.mobs) }

// posOfIdx returns node i's memoized position at time now, refreshing the
// memo when the clock has moved since the last refresh.
func (m *Medium) posOfIdx(i int32, now float64) tuple.Point {
	if m.posAt[i] != now {
		p := m.mobs[i].Pos(now)
		m.posX[i], m.posY[i] = p.X, p.Y
		m.posAt[i] = now
	}
	return tuple.Point{X: m.posX[i], Y: m.posY[i]}
}

// PosOf returns a node's current position.
func (m *Medium) PosOf(id NodeID) tuple.Point {
	return m.posOfIdx(int32(id), m.eng.Now())
}

// InRange reports whether two nodes can currently hear each other.
func (m *Medium) InRange(a, b NodeID) bool {
	if a == b {
		return false
	}
	now := m.eng.Now()
	return m.posOfIdx(int32(a), now).WithinDist(m.posOfIdx(int32(b), now), m.cfg.Range)
}

// neighborCandidates is the preamble every neighbour probe shares: it counts
// the probe, brings the grid up to date for now, and gathers the candidates
// of id's probe ring. Under a positive speed bound, grid entries may be up to
// maxSpeed·(now−epoch) stale; expanding the ring by that much keeps every
// probe exact (candidates are re-checked at their true positions). full
// reports that the ring covers every occupied cell, so every node is a
// candidate and cand is empty (see gridGather).
func (m *Medium) neighborCandidates(id NodeID) (p tuple.Point, now float64, cand []int32, full bool) {
	m.Counters.NeighborQueries++
	now = m.eng.Now()
	m.gridEnsure(now)
	p = m.posOfIdx(int32(id), now)
	radius := m.cfg.Range
	if ms := m.grid.maxSpeed; ms > 0 {
		radius += ms * (now - m.grid.epoch)
	}
	cand, full = m.gridGather(p, radius)
	return p, now, cand, full
}

// NeighborsInto appends the nodes currently within range of id to buf[:0],
// in ID order, and returns the result. Passing a reused buffer makes the
// query allocation-free: only the grid cells a true neighbor could occupy
// are probed (see grid.go for the staleness ring). When the probe covers
// every occupied cell — the norm at the paper's geometry, where Range is a
// large fraction of the field — it degenerates to a direct scan over the
// memoized positions, with no gather.
func (m *Medium) NeighborsInto(id NodeID, buf []NodeID) []NodeID {
	buf = buf[:0]
	p, now, cand, full := m.neighborCandidates(id)
	if full {
		// Full coverage: every node is a candidate, already in ID order.
		m.Counters.NeighborScanned += len(m.mobs) - 1
		for i := range m.mobs {
			if NodeID(i) == id {
				continue
			}
			if p.WithinDist(m.posOfIdx(int32(i), now), m.cfg.Range) {
				buf = append(buf, NodeID(i))
			}
		}
		return buf
	}
	// Cells are visited in block order: mark the candidates in range in the
	// ID bitset, then sweep the words touched to emit them in the global ID
	// order the brute-force scan produces.
	m.Counters.NeighborScanned += len(cand)
	lo, hi := len(m.inRange), -1
	for _, ni := range cand {
		if NodeID(ni) == id {
			continue
		}
		if p.WithinDist(m.posOfIdx(ni, now), m.cfg.Range) {
			w := int(ni >> 6)
			m.inRange[w] |= 1 << (ni & 63)
			lo, hi = min(lo, w), max(hi, w)
		}
	}
	for w := lo; w <= hi; w++ {
		for word := m.inRange[w]; word != 0; word &= word - 1 {
			buf = append(buf, NodeID(w<<6+bits.TrailingZeros64(word)))
		}
		m.inRange[w] = 0
	}
	return buf
}

// FirstNeighborExcept returns the smallest-ID node currently within range
// of id that is not in except, or -1 when there is none: the first entry of
// NeighborsInto(id) not in except, without building the list. except must
// be ascending; it may hold id itself and IDs that are out of range or not
// registered. A node in except is ruled out before its position is
// refreshed, and the probe allocates nothing.
func (m *Medium) FirstNeighborExcept(id NodeID, except []NodeID) NodeID {
	p, now, cand, full := m.neighborCandidates(id)
	n := NodeID(len(m.mobs))
	scanned := 0
	if full {
		// Walk IDs ascending beside except; the first in range wins.
		j := 0
		for i := NodeID(0); i < n; i++ {
			for j < len(except) && except[j] < i {
				j++
			}
			if i == id || (j < len(except) && except[j] == i) {
				continue
			}
			scanned++
			if p.WithinDist(m.posOfIdx(int32(i), now), m.cfg.Range) {
				m.Counters.NeighborScanned += scanned
				return i
			}
		}
		m.Counters.NeighborScanned += scanned
		return -1
	}
	// Gathered candidates come in block order, not ID order. Mark id and
	// except in the all-zero ID bitset so a ruled-out candidate costs one
	// bit test, keep the smallest in-range ID seen, and skip candidates at
	// or above it; the marks are cleared before returning.
	m.inRange[id>>6] |= 1 << (id & 63)
	for _, e := range except {
		if uint(e) < uint(n) {
			m.inRange[e>>6] |= 1 << (e & 63)
		}
	}
	best := n
	for _, ni := range cand {
		if NodeID(ni) >= best || m.inRange[ni>>6]&(1<<(ni&63)) != 0 {
			continue
		}
		scanned++
		if p.WithinDist(m.posOfIdx(ni, now), m.cfg.Range) {
			best = NodeID(ni)
		}
	}
	// Every set bit is one of the marks, so zeroing their words restores
	// the all-zero bitset.
	m.inRange[id>>6] = 0
	for _, e := range except {
		if uint(e) < uint(n) {
			m.inRange[e>>6] = 0
		}
	}
	m.Counters.NeighborScanned += scanned
	if best == n {
		return -1
	}
	return best
}

// txDelay computes the serialized transmission start and airtime for one
// frame from the given node, advancing the node's busy horizon.
func (m *Medium) txDelay(from NodeID, sizeBytes int) (start, airtime float64) {
	bits := float64(sizeBytes+headerBytes) * 8
	airtime = bits / m.cfg.Bandwidth
	start = m.eng.Now()
	if bu := m.busyUntil[from]; bu > start {
		start = bu
	}
	m.busyUntil[from] = start + airtime
	return start, airtime
}

// getSlot pops a free delivery slot (or grows the pool).
func (m *Medium) getSlot() uint32 {
	if n := len(m.freeSlots); n > 0 {
		s := m.freeSlots[n-1]
		m.freeSlots = m.freeSlots[:n-1]
		return s
	}
	m.inflight = append(m.inflight, delivery{})
	return uint32(len(m.inflight) - 1)
}

// putSlot recycles a delivery slot, releasing its payload reference.
func (m *Medium) putSlot(s uint32) {
	m.inflight[s].p = nil
	m.freeSlots = append(m.freeSlots, s)
}

// runDelivery fires a shared delivery event: the frame reaches every
// captured receiver in ID order — the exact per-receiver order the former
// one-event-per-receiver scheme produced, so RNG draws are unchanged.
func (m *Medium) runDelivery(slot uint32, _ uint64) {
	d := &m.inflight[slot]
	from, p, to := d.from, d.p, d.to
	// Handlers may transmit, growing m.inflight: use the captured locals,
	// not d, past this point.
	fromPos := m.PosOf(from)
	for _, rcv := range to {
		if !m.received(from, rcv, fromPos) {
			continue
		}
		m.Counters.Receptions++
		m.handlers[rcv](from, p)
	}
	m.putSlot(slot)
}

// runLinkDelivery fires one per-link delivery event (LinkQueue mode): the
// frame reaches the single receiver packed in b, and the slot is recycled
// when its last per-link event has fired.
func (m *Medium) runLinkDelivery(slot uint32, b uint64) {
	d := &m.inflight[slot]
	from, p := d.from, d.p
	d.refs--
	last := d.refs == 0
	rcv := NodeID(b)
	if m.received(from, rcv, m.PosOf(from)) {
		m.Counters.Receptions++
		m.handlers[rcv](from, p) // may grow m.inflight; d is stale after
	}
	if last {
		m.putSlot(slot)
	}
}

// SetFaults attaches a fault injector to the medium; nil detaches it. The
// injector is consulted only when non-nil, so the fault-free fast path is
// untouched.
func (m *Medium) SetFaults(f FaultInjector) { m.faults = f }

// scheduleDelivery queues the slot's frame at its nominal delivery time,
// applying any fault-injected reordering delay and duplicate copies first
// (duplicates are scheduled before the original, preserving the event
// sequence order of the previous implementation).
func (m *Medium) scheduleDelivery(slot uint32, nominal, airtime float64) {
	at := nominal
	if m.faults != nil {
		extra, dups := m.faults.TxEffects(m.eng.Now())
		at += extra
		for _, dd := range dups {
			c := m.getSlot()
			src := &m.inflight[slot] // re-take: getSlot may have grown the pool
			cp := &m.inflight[c]
			cp.from = src.from
			cp.to = append(cp.to[:0], src.to...)
			cp.p = src.p
			m.Counters.DupedFrames++
			m.sendFrame(c, at+dd, airtime)
		}
	}
	m.sendFrame(slot, at, airtime)
}

// sendFrame schedules the slot's delivery event(s). With LinkQueue off,
// one shared compact event walks the receiver list at delivery time. With
// LinkQueue on, each receiver gets its own event serialized behind that
// receiver's busy horizon, and frames that would queue longer than
// LinkQueue airtimes are dropped — explicit per-link transmit modeling.
func (m *Medium) sendFrame(slot uint32, at, airtime float64) {
	if m.cfg.LinkQueue <= 0 {
		m.eng.AtKind(at, m.deliverKind, slot, 0)
		return
	}
	d := &m.inflight[slot]
	capTime := float64(m.cfg.LinkQueue) * airtime
	queued := int32(0)
	for _, rcv := range d.to {
		arr := at
		if rb := m.rxBusy[rcv]; rb > arr {
			arr = rb
		}
		// Compare horizons, not differences: (at+airtime)−at need not equal
		// airtime in floating point, but both horizons below are built from
		// the same additions, so a queue of exactly LinkQueue frames is
		// admitted bit-reliably.
		if arr > at+capTime {
			m.Counters.DroppedQueue++
			continue
		}
		m.rxBusy[rcv] = arr + airtime
		m.eng.AtKind(arr, m.linkKind, slot, uint64(rcv))
		queued++
	}
	d.refs = queued
	if queued == 0 {
		m.putSlot(slot)
	}
}

// Unicast queues one frame from -> to. It returns false without
// transmitting when the receiver is out of range at send time — the
// immediate link-break feedback AODV relies on. Delivery happens after
// queueing, airtime, and overhead, unless the receiver moved out of range
// meanwhile or the loss process discards the frame.
func (m *Medium) Unicast(from, to NodeID, p Payload) bool {
	if from == to {
		panic("radio: self-addressed frame")
	}
	if m.faults != nil && m.faults.NodeDown(int(from), m.eng.Now()) {
		return false
	}
	if !m.InRange(from, to) {
		return false
	}
	size := p.SizeBytes()
	start, airtime := m.txDelay(from, size)
	m.Counters.FramesSent++
	m.Counters.Unicasts++
	m.Counters.BytesSent += size + headerBytes
	slot := m.getSlot()
	d := &m.inflight[slot]
	d.from = from
	d.to = append(d.to[:0], to)
	d.p = p
	m.scheduleDelivery(slot, start+airtime+m.cfg.Overhead, airtime)
	return true
}

// received decides, at delivery time, whether a frame from → to arrives:
// hard range cut (the predicate neighbour discovery uses), then edge fading,
// then the independent loss process. fromPos is the sender's position now.
func (m *Medium) received(from, to NodeID, fromPos tuple.Point) bool {
	toPos := m.PosOf(to)
	if m.faults != nil &&
		m.faults.CutLink(int(from), int(to), m.eng.Now(), fromPos, toPos) {
		m.Counters.DroppedFault++
		return false
	}
	if !fromPos.WithinDist(toPos, m.cfg.Range) {
		m.Counters.DroppedRange++
		return false
	}
	if m.cfg.FadeMargin > 0 {
		edge := m.cfg.Range * (1 - m.cfg.FadeMargin)
		if d := fromPos.Dist(toPos); d > edge {
			pRecv := (m.cfg.Range - d) / (m.cfg.Range - edge)
			if m.rng.Float64() >= pRecv {
				m.Counters.DroppedRange++
				return false
			}
		}
	}
	if m.cfg.Loss > 0 && m.rng.Float64() < m.cfg.Loss {
		m.Counters.DroppedLoss++
		return false
	}
	return true
}

// Broadcast transmits one frame to every node currently in range and
// returns how many receivers were addressed. The transmission is a single
// busy period on the sender's radio; each addressed receiver independently
// suffers range and loss drops at delivery time.
func (m *Medium) Broadcast(from NodeID, p Payload) int {
	if m.faults != nil && m.faults.NodeDown(int(from), m.eng.Now()) {
		return 0
	}
	slot := m.getSlot()
	d := &m.inflight[slot]
	d.to = m.NeighborsInto(from, d.to)
	size := p.SizeBytes()
	start, airtime := m.txDelay(from, size)
	m.Counters.FramesSent++
	m.Counters.Broadcasts++
	m.Counters.BytesSent += size + headerBytes
	nrecv := len(d.to)
	if nrecv == 0 {
		m.putSlot(slot)
		return 0
	}
	d.from = from
	d.p = p
	m.scheduleDelivery(slot, start+airtime+m.cfg.Overhead, airtime)
	return nrecv
}

// Config returns the medium configuration.
func (m *Medium) Config() Config { return m.cfg }
