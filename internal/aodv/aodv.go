// Package aodv implements the Ad hoc On-demand Distance Vector routing
// protocol the paper's simulations use (Table 7): reactive route discovery
// by flooding route requests (RREQ), route replies (RREP) travelling back
// along reverse paths, per-destination sequence numbers for freshness,
// route lifetimes, local repair on link breaks, and route error reports
// (RERR).
//
// The network owns every node's radio handler and demultiplexes control
// packets, routed data, and one-hop application broadcasts. Applications
// (internal/manet) send routed unicasts with Send and neighbourhood
// broadcasts with BroadcastLocal, and receive through the callbacks they
// register when adding a node.
package aodv

import (
	"fmt"
	"slices"

	"manetskyline/internal/mobility"
	"manetskyline/internal/radio"
	"manetskyline/internal/sim"
)

// Config tunes protocol constants; the defaults follow the AODV RFC's
// spirit scaled to the paper's 2-hour pedestrian-speed scenarios.
type Config struct {
	// TTL bounds RREQ flooding (maximum hop count).
	TTL int
	// RouteLifetime is how long an unused route stays valid (seconds).
	RouteLifetime float64
	// DiscoveryTimeout is how long a node waits for an RREP before
	// retrying (seconds).
	DiscoveryTimeout float64
	// DiscoveryRetries is how many times discovery is retried before the
	// pending packets are dropped.
	DiscoveryRetries int
	// SeenLifetime is how long (orig, rreqID) pairs are remembered.
	SeenLifetime float64
}

// DefaultConfig returns the simulation defaults.
func DefaultConfig() Config {
	return Config{
		TTL:              32,
		RouteLifetime:    15,
		DiscoveryTimeout: 1.0,
		DiscoveryRetries: 2,
		SeenLifetime:     30,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.TTL <= 0 || c.TTL > maxHops {
		return fmt.Errorf("aodv: TTL %d outside [1,%d]", c.TTL, maxHops)
	}
	if c.RouteLifetime <= 0 || c.DiscoveryTimeout <= 0 || c.SeenLifetime <= 0 {
		return fmt.Errorf("aodv: non-positive timing constants")
	}
	if c.DiscoveryRetries < 0 {
		return fmt.Errorf("aodv: negative retries")
	}
	return nil
}

// DataHandler receives routed application payloads; src is the node that
// originated the unicast and hops is the number of radio links the packet
// traversed end to end (1 for a direct neighbour delivery).
type DataHandler func(src radio.NodeID, hops int, payload radio.Payload)

// LocalHandler receives one-hop application broadcasts; from is the
// neighbour that transmitted.
type LocalHandler func(from radio.NodeID, payload radio.Payload)

// Counters aggregates protocol activity across the network.
type Counters struct {
	RREQSent      int
	RREPSent      int
	RERRSent      int
	DataForwarded int // hop-level data transmissions
	DataDelivered int // end-to-end deliveries
	DataDropped   int // gave up (no route after retries, TTL, or break)
	// RouteDiscoveries counts discovery rounds started (first attempts and
	// retries alike).
	RouteDiscoveries int
	// RouteFailures counts link breaks detected while forwarding data (each
	// triggers invalidation and local repair).
	RouteFailures int
}

// ControlBytes is the on-air size of the control transmissions counted in
// c, at the RFC 3561 header sizes of RREQ, RREP and RERR.
func (c Counters) ControlBytes() int {
	return c.RREQSent*rreqBytes + c.RREPSent*rrepBytes + c.RERRSent*rerrBytes
}

// Network is a set of AODV nodes sharing one radio medium.
type Network struct {
	eng   *sim.Engine
	med   *radio.Medium
	cfg   Config
	nodes []*node

	// Counters is exported for metric collection.
	Counters Counters

	// ForwardHook, when set, is called with the application payload for
	// every hop-level data transmission; the manet layer uses it to
	// attribute per-query message counts (Figure 12) to overlapping
	// queries.
	ForwardHook func(payload radio.Payload)
}

// New creates an AODV network on the given engine and medium. The medium
// must be empty: the network owns all radio handlers.
func New(eng *sim.Engine, med *radio.Medium, cfg Config) *Network {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if med.NumNodes() != 0 {
		panic("aodv: medium already has nodes")
	}
	return &Network{eng: eng, med: med, cfg: cfg}
}

// AddNode registers a node with its mobility model and application
// handlers (either may be nil if unused) and returns its ID.
func (n *Network) AddNode(mob mobility.Model, onData DataHandler, onLocal LocalHandler) radio.NodeID {
	nd := &node{
		net:     n,
		pending: make(map[radio.NodeID]*discovery),
		onData:  onData,
		onLocal: onLocal,
	}
	nd.id = n.med.AddNode(mob, nd.receive)
	n.nodes = append(n.nodes, nd)
	return nd.id
}

// Send routes payload from src to dst, discovering a route if necessary.
// Delivery is best-effort: packets may be dropped after failed discovery
// retries or on unrepairable link breaks; the application must use its own
// timeouts.
func (n *Network) Send(src, dst radio.NodeID, payload radio.Payload) {
	if src == dst {
		panic("aodv: self-addressed send")
	}
	n.nodes[src].sendData(&dataPkt{Src: src, Dst: dst, Inner: payload})
}

// BroadcastLocal transmits payload to src's current one-hop neighbourhood
// and returns the number of addressed receivers.
func (n *Network) BroadcastLocal(src radio.NodeID, payload radio.Payload) int {
	return n.med.Broadcast(src, &localPkt{Inner: payload})
}

// BroadcastLocalRouted is BroadcastLocal with the RREQ trick applied to
// application floods: the frame additionally carries the flood's originator
// and the hop distance from it, and every receiver installs a reverse route
// toward the originator through the transmitting neighbour. A query flood
// then doubles as route discovery for the replies it solicits — at 30k
// devices this replaces ~30k per-device RREQ storms with the flood the
// application was sending anyway. Costs 8 extra header bytes per frame.
func (n *Network) BroadcastLocalRouted(src, orig radio.NodeID, hops int, payload radio.Payload) int {
	return n.med.Broadcast(src, &localRoutedPkt{Orig: orig, Hops: hops, Inner: payload})
}

// --- wire format -----------------------------------------------------------

// Control packet sizes on air (RFC 3561 message formats).
const (
	rreqBytes = 24
	rrepBytes = 20
	rerrBytes = 12
)

type rreqPkt struct {
	Orig    radio.NodeID
	OrigSeq uint32
	ID      uint32
	Dst     radio.NodeID
	DstSeq  uint32
	Hops    int
}

func (*rreqPkt) SizeBytes() int { return rreqBytes }

type rrepPkt struct {
	Orig   radio.NodeID // the requester the reply travels to
	Dst    radio.NodeID // the destination the route leads to
	DstSeq uint32
	Hops   int
}

func (*rrepPkt) SizeBytes() int { return rrepBytes }

type rerrPkt struct {
	Dst    radio.NodeID // unreachable destination
	DstSeq uint32
}

func (*rerrPkt) SizeBytes() int { return rerrBytes }

type dataPkt struct {
	Src   radio.NodeID
	Dst   radio.NodeID
	Hops  int
	Inner radio.Payload
}

func (d *dataPkt) SizeBytes() int { return 16 + d.Inner.SizeBytes() }

type localPkt struct {
	Inner radio.Payload
}

func (l *localPkt) SizeBytes() int { return 4 + l.Inner.SizeBytes() }

// localRoutedPkt is a one-hop broadcast that also advertises a reverse
// route: Orig issued the flood, Hops links away from this transmission's
// receivers.
type localRoutedPkt struct {
	Orig  radio.NodeID
	Hops  int
	Inner radio.Payload
}

func (l *localRoutedPkt) SizeBytes() int { return 12 + l.Inner.SizeBytes() }

// --- node state ------------------------------------------------------------

type discovery struct {
	packets []*dataPkt
	retries int
	active  bool
}

type node struct {
	net     *Network
	id      radio.NodeID
	seqNo   uint32
	rreqID  uint32
	routes  routeTable
	seen    seenSet
	pending map[radio.NodeID]*discovery
	onData  DataHandler
	onLocal LocalHandler
}

func (nd *node) now() float64 { return nd.net.eng.Now() }

// touchRoute installs or refreshes a route.
func (nd *node) touchRoute(dst, nextHop radio.NodeID, seq uint32, hops int) {
	hops = min(hops, maxHops)
	r := nd.routes.findOrInsert(dst)
	now := nd.now()
	fresher := !r.valid || r.expires <= now ||
		seq > r.seq || (seq == r.seq && hops < int(r.hops))
	if fresher {
		r.nextHop, r.seq, r.hops, r.valid = int32(nextHop), seq, uint16(hops), true
		r.expires = now + nd.net.cfg.RouteLifetime
		return
	}
	if r.nextHop == int32(nextHop) {
		r.expires = now + nd.net.cfg.RouteLifetime
	}
}

// validRoute returns the current route to dst, or nil. The pointer is good
// until the next touchRoute.
func (nd *node) validRoute(dst radio.NodeID) *route {
	r := nd.routes.find(dst)
	if r == nil || !r.valid || r.expires <= nd.now() {
		return nil
	}
	return r
}

// invalidateVia marks every route through the broken neighbour invalid and
// returns the destinations lost, in ascending order: the caller sends one
// RERR per destination, and slot order there would tie the frame sequence,
// and so a whole run, to the table's growth history.
func (nd *node) invalidateVia(neighbor radio.NodeID) []radio.NodeID {
	var lost []radio.NodeID
	for i := range nd.routes.slots {
		r := &nd.routes.slots[i]
		if r.valid && r.nextHop == int32(neighbor) {
			r.valid = false
			lost = append(lost, radio.NodeID(r.dst))
		}
	}
	slices.Sort(lost)
	return lost
}

// receive is the radio handler: demultiplex by packet type.
func (nd *node) receive(from radio.NodeID, p radio.Payload) {
	// Every heard frame proves a live link to the neighbour.
	nd.touchRoute(from, from, 0, 1)
	switch pkt := p.(type) {
	case *rreqPkt:
		nd.handleRREQ(from, pkt)
	case *rrepPkt:
		nd.handleRREP(from, pkt)
	case *rerrPkt:
		nd.handleRERR(from, pkt)
	case *dataPkt:
		nd.handleData(pkt)
	case *localPkt:
		if nd.onLocal != nil {
			nd.onLocal(from, pkt.Inner)
		}
	case *localRoutedPkt:
		// Install the reverse route before the application reacts, so a
		// result sent from inside the handler already finds it. Sequence 0
		// never displaces a fresher discovered route.
		if pkt.Orig != nd.id {
			nd.touchRoute(pkt.Orig, from, 0, pkt.Hops)
		}
		if nd.onLocal != nil {
			nd.onLocal(from, pkt.Inner)
		}
	default:
		panic(fmt.Sprintf("aodv: unknown packet type %T", p))
	}
}

func (nd *node) handleRREQ(from radio.NodeID, q *rreqPkt) {
	now := nd.now()
	if nd.seen.checkAndSet(seenKey(q.Orig, q.ID), now, now+nd.net.cfg.SeenLifetime) {
		return
	}

	if q.Orig == nd.id {
		return // own flood came back
	}
	// Reverse route toward the requester.
	nd.touchRoute(q.Orig, from, q.OrigSeq, q.Hops+1)

	if q.Dst == nd.id {
		// Destination replies; bump own sequence number to at least the
		// requested freshness.
		if q.DstSeq > nd.seqNo {
			nd.seqNo = q.DstSeq
		}
		nd.seqNo++
		nd.sendRREP(&rrepPkt{Orig: q.Orig, Dst: nd.id, DstSeq: nd.seqNo, Hops: 0})
		return
	}
	// Intermediate node with a fresh-enough route replies on the
	// destination's behalf.
	if r := nd.validRoute(q.Dst); r != nil && r.seq >= q.DstSeq {
		nd.sendRREP(&rrepPkt{Orig: q.Orig, Dst: q.Dst, DstSeq: r.seq, Hops: int(r.hops)})
		return
	}
	// Otherwise keep flooding.
	if q.Hops+1 >= nd.net.cfg.TTL {
		return
	}
	fwd := *q
	fwd.Hops++
	nd.net.Counters.RREQSent++
	nd.net.med.Broadcast(nd.id, &fwd)
}

// sendRREP forwards a route reply one hop toward its requester.
func (nd *node) sendRREP(p *rrepPkt) {
	r := nd.validRoute(p.Orig)
	if r == nil {
		return // reverse route evaporated; discovery will time out
	}
	nd.net.Counters.RREPSent++
	nd.net.med.Unicast(nd.id, radio.NodeID(r.nextHop), p)
}

func (nd *node) handleRREP(from radio.NodeID, p *rrepPkt) {
	// Forward route to the destination through the neighbour that sent us
	// the reply.
	nd.touchRoute(p.Dst, from, p.DstSeq, p.Hops+1)
	if p.Orig == nd.id {
		nd.routeEstablished(p.Dst)
		return
	}
	fwd := *p
	fwd.Hops++
	nd.sendRREP(&fwd)
}

func (nd *node) handleRERR(from radio.NodeID, p *rerrPkt) {
	if r := nd.routes.find(p.Dst); r != nil && r.valid && r.nextHop == int32(from) {
		r.valid = false
	}
}

func (nd *node) handleData(p *dataPkt) {
	if p.Dst == nd.id {
		nd.net.Counters.DataDelivered++
		if nd.onData != nil {
			// Hops counts forwards before this delivery, so the number of
			// links traversed is Hops+1.
			nd.onData(p.Src, p.Hops+1, p.Inner)
		}
		return
	}
	if p.Hops >= nd.net.cfg.TTL {
		nd.net.Counters.DataDropped++
		return
	}
	fwd := *p
	fwd.Hops++
	nd.sendData(&fwd)
}

// sendData forwards a data packet toward its destination, running route
// discovery or local repair as needed.
func (nd *node) sendData(p *dataPkt) {
	r := nd.validRoute(p.Dst)
	if r == nil {
		nd.queueForDiscovery(p)
		return
	}
	nextHop := radio.NodeID(r.nextHop)
	nd.net.Counters.DataForwarded++
	if nd.net.med.Unicast(nd.id, nextHop, p) {
		r.expires = nd.now() + nd.net.cfg.RouteLifetime
		if nd.net.ForwardHook != nil {
			nd.net.ForwardHook(p.Inner)
		}
		return
	}
	// Link break: invalidate, tell upstream, and attempt local repair.
	nd.net.Counters.DataForwarded-- // transmission did not happen
	nd.net.Counters.RouteFailures++
	for _, lost := range nd.invalidateVia(nextHop) {
		if p.Src != nd.id {
			nd.sendRERRToward(p.Src, lost)
		}
	}
	nd.queueForDiscovery(p)
}

// sendRERRToward reports an unreachable destination back toward a source.
func (nd *node) sendRERRToward(src, lostDst radio.NodeID) {
	r := nd.validRoute(src)
	if r == nil {
		return
	}
	var seq uint32
	if lr := nd.routes.find(lostDst); lr != nil {
		seq = lr.seq + 1
	}
	nd.net.Counters.RERRSent++
	nd.net.med.Unicast(nd.id, radio.NodeID(r.nextHop), &rerrPkt{Dst: lostDst, DstSeq: seq})
}

// queueForDiscovery buffers a packet and kicks off route discovery.
func (nd *node) queueForDiscovery(p *dataPkt) {
	d, ok := nd.pending[p.Dst]
	if !ok {
		d = &discovery{}
		nd.pending[p.Dst] = d
	}
	d.packets = append(d.packets, p)
	if !d.active {
		d.active = true
		d.retries = 0
		nd.startDiscovery(p.Dst)
	}
}

func (nd *node) startDiscovery(dst radio.NodeID) {
	nd.rreqID++
	nd.seqNo++
	var dstSeq uint32
	if r := nd.routes.find(dst); r != nil {
		dstSeq = r.seq
	}
	id := nd.rreqID
	nd.net.Counters.RREQSent++
	nd.net.Counters.RouteDiscoveries++
	nd.net.med.Broadcast(nd.id, &rreqPkt{
		Orig: nd.id, OrigSeq: nd.seqNo, ID: id, Dst: dst, DstSeq: dstSeq,
	})
	nd.net.eng.Schedule(nd.net.cfg.DiscoveryTimeout, func() {
		nd.discoveryTimeout(dst)
	})
}

func (nd *node) discoveryTimeout(dst radio.NodeID) {
	d, ok := nd.pending[dst]
	if !ok || !d.active {
		return
	}
	if nd.validRoute(dst) != nil {
		nd.routeEstablished(dst)
		return
	}
	if d.retries < nd.net.cfg.DiscoveryRetries {
		d.retries++
		nd.startDiscovery(dst)
		return
	}
	// Give up: drop the buffered packets.
	nd.net.Counters.DataDropped += len(d.packets)
	delete(nd.pending, dst)
}

// routeEstablished flushes packets buffered for dst.
func (nd *node) routeEstablished(dst radio.NodeID) {
	d, ok := nd.pending[dst]
	if !ok {
		return
	}
	pkts := d.packets
	delete(nd.pending, dst)
	for _, p := range pkts {
		nd.sendData(p)
	}
}
