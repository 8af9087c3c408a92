package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"manetskyline/internal/gen"
	"manetskyline/internal/localsky"
	"manetskyline/internal/skyline"
	"manetskyline/internal/tuple"
)

// chanNet is an in-test synchronous channel for the flood machine: a static
// g×g grid with 4-neighbour links, one queue of pending steps (frame
// deliveries and processing completions), and a policy choosing which step
// runs next. A timer fires only when the queue is empty. Frames overtake
// each other freely, or, with linkFIFO, only across links: DF needs a
// child's ack to reach its parent before the child's subtree result does.
type chanNet struct {
	t     *testing.T
	g     int
	fls   []*Flood
	queue []step
	pick  func(n int) int // index of the next step among n pending
	dup   bool            // enqueue every frame twice
	// linkFIFO delivers the frames of one (from, to) link in send order.
	linkFIFO bool
	armed    []armed
	// quorum is the BF and SF originators' completion threshold.
	quorum int
	strat  Strategy

	processed map[QueryKey][]int // Process requests per device
	counted   map[QueryKey]map[DeviceID]bool
	completed map[QueryKey][]tuple.Tuple
	completes int
	survivors map[DeviceID]int
}

// step is a frame to deliver to device to, or (done) the completion of
// to's processing of m.
type step struct {
	from DeviceID
	to   DeviceID
	m    Msg
	done bool
	res  localsky.Result
}

type armed struct {
	key QueryKey
	t   Timer
	n   int
	at  DeviceID
}

func newChanNet(t *testing.T, devs []*Device, g int, opt FloodOptions) *chanNet {
	n := &chanNet{
		t: t, g: g,
		processed: make(map[QueryKey][]int),
		counted:   make(map[QueryKey]map[DeviceID]bool),
		completed: make(map[QueryKey][]tuple.Tuple),
		survivors: make(map[DeviceID]int),
		quorum:    Quorum(1, len(devs)),
	}
	for _, d := range devs {
		n.fls = append(n.fls, &Flood{Dev: d, Opt: opt})
	}
	return n
}

// io is device id's FloodIO.
func (n *chanNet) io(id DeviceID) FloodIO { return chanIO{n, id} }

func (n *chanNet) push(from, to DeviceID, m Msg) {
	n.queue = append(n.queue, step{from: from, to: to, m: m})
	if n.dup {
		n.queue = append(n.queue, step{from: from, to: to, m: m})
	}
}

// next picks the index of the step to run among those eligible.
func (n *chanNet) next() int {
	if !n.linkFIFO {
		return n.pick(len(n.queue))
	}
	var eligible []int
	for i, s := range n.queue {
		if s.done || !slices.ContainsFunc(n.queue[:i], func(e step) bool {
			return !e.done && e.from == s.from && e.to == s.to
		}) {
			eligible = append(eligible, i)
		}
	}
	return eligible[n.pick(len(eligible))]
}

// run drains the queue, firing armed timers whenever it runs dry. A run
// that has not drained after maxSteps steps is a flood that never ends.
func (n *chanNet) run() {
	const maxSteps = 1 << 16
	for steps := 0; len(n.queue) > 0 || len(n.armed) > 0; steps++ {
		if steps == maxSteps {
			n.t.Fatalf("no quiescence after %d steps: %d steps pending", maxSteps, len(n.queue))
		}
		if len(n.queue) == 0 {
			a := n.armed[0]
			n.armed = n.armed[1:]
			n.fls[a.at].Fire(a.key, a.t, a.n, n.io(a.at))
			continue
		}
		i := n.next()
		s := n.queue[i]
		n.queue = append(n.queue[:i], n.queue[i+1:]...)
		if s.done {
			n.fls[s.to].Processed(&s.m, s.res, n.io(s.to))
		} else {
			n.deliver(s.to, &s.m)
		}
	}
}

// deliver hands a frame to device to, noting the senders of results
// reaching their originator.
func (n *chanNet) deliver(to DeviceID, m *Msg) (dup bool) {
	if to == m.Q.Org && (m.Kind == MsgResult || m.Kind == MsgSurvivors) {
		key := m.Key()
		if n.counted[key] == nil {
			n.counted[key] = make(map[DeviceID]bool)
		}
		n.counted[key][m.From] = true
	}
	return n.fls[to].Receive(m, n.io(to))
}

type chanIO struct {
	n  *chanNet
	id DeviceID
}

// Process evaluates at once and queues the completion as a step of its own,
// so frames can overtake it.
func (c chanIO) Process(m *Msg) {
	key := m.Key()
	if c.n.processed[key] == nil {
		c.n.processed[key] = make([]int, len(c.n.fls))
	}
	c.n.processed[key][c.id]++
	res := c.n.fls[c.id].Dev.Process(m.Q)
	c.n.queue = append(c.n.queue, step{to: c.id, m: *m, done: true, res: res})
}

func (c chanIO) Send(to DeviceID, m Msg) {
	if m.Kind == MsgSurvivors {
		c.n.survivors[c.id]++
	}
	c.n.push(c.id, to, m)
}

func (c chanIO) Flood(m Msg) {
	for _, nb := range c.n.neighbors(c.id) {
		c.n.push(c.id, nb, m)
	}
}

// neighbors lists id's grid neighbours.
func (n *chanNet) neighbors(id DeviceID) []DeviceID {
	var out []DeviceID
	r, col := int(id)/n.g, int(id)%n.g
	for _, d := range gridNeighbors {
		nr, nc := r+d[0], col+d[1]
		if nr >= 0 && nr < n.g && nc >= 0 && nc < n.g {
			out = append(out, DeviceID(nr*n.g+nc))
		}
	}
	return out
}

func (c chanIO) Arm(key QueryKey, t Timer, n int) {
	c.n.armed = append(c.n.armed, armed{key, t, n, c.id})
}

// Next returns the smallest-ID grid neighbour not in tried.
func (c chanIO) Next(tried []DeviceID) DeviceID {
	next := DeviceID(-1)
	for _, nb := range c.n.neighbors(c.id) {
		if _, in := slices.BinarySearch(tried, nb); !in && (next < 0 || nb < next) {
			next = nb
		}
	}
	return next
}

func (c chanIO) Reissued(QueryKey, int) {}

func (c chanIO) Merged(*Msg, []tuple.Tuple) {}

func (c chanIO) Complete(key QueryKey, merged []tuple.Tuple) {
	c.n.completes++
	c.n.completed[key] = merged
	// BF and SF completion needs quorum distinct senders, whatever was
	// duplicated.
	if got, want := len(c.n.counted[key]), c.n.quorum; c.n.strat != DepthFirst && got < want {
		c.n.t.Errorf("query %v completed with %d distinct senders, quorum %d", key, got, want)
	}
}

// TestFloodMachineOverChannel drives BF, SF and DF through the machine on
// a static 3×3 grid, with no simulator and no sockets, under FIFO, reversed
// and shuffled delivery, each as is and with every frame duplicated. Every
// device originates once in turn. DF runs over per-link FIFO links, and
// its result is exact only without duplicates: an ack does not name the
// hand-off it answers, so a duplicated refusal can turn down the next
// hand-off too, and two walks then leave one parent, which reports before
// the second returns.
func TestFloodMachineOverChannel(t *testing.T) {
	orders := []struct {
		name string
		pick func(r *rand.Rand) func(int) int
	}{
		{"fifo", func(*rand.Rand) func(int) int { return func(int) int { return 0 } }},
		{"reversed", func(*rand.Rand) func(int) int { return func(n int) int { return n - 1 } }},
		{"shuffle", func(r *rand.Rand) func(int) int { return r.Intn }},
	}
	for _, strat := range []Strategy{BreadthFirst, SamplingFilter, DepthFirst} {
		for _, o := range orders {
			for _, dup := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%s/dup=%v", strings.ToLower(strat.String()), o.name, dup), func(t *testing.T) {
					n, all := newGridNet(t, strat)
					n.pick = o.pick(rand.New(rand.NewSource(11)))
					n.dup = dup
					n.linkFIFO = strat == DepthFirst
					for org := range n.fls {
						n.originate(DeviceID(org), all)
					}
					if n.completes != len(n.fls) {
						t.Errorf("%d completions for %d queries", n.completes, len(n.fls))
					}
				})
			}
		}
	}
}

// newGridNet builds the 3×3 channel for strat over one dataset, and returns
// every device's tuples with it: the oracle's input.
func newGridNet(t *testing.T, strat Strategy) (*chanNet, []tuple.Tuple) {
	const g = 3
	devs := staticDevices(t, 3000, 2, g, gen.Independent, Under, true, 5)
	var all []tuple.Tuple
	for _, d := range devs {
		for i := 0; i < d.Rel.Len(); i++ {
			all = append(all, d.Rel.Tuple(i))
		}
	}
	n := newChanNet(t, devs, g, FloodOptions{SampleK: 2, SampleTTL: 1, FilterK: 2})
	n.strat = strat
	return n, all
}

// originate runs one query from org to the end and checks it: the result
// is the constrained skyline over every device (under DF with duplicates,
// the skyline of some of the tuples in range), every other device
// processed the query exactly once, and no relay still holds walk state.
func (n *chanNet) originate(org DeviceID, all []tuple.Tuple) {
	const dist = 450
	t := n.t
	d := n.fls[org].Dev
	pos := d.Rel.MBR().Center()
	q, res := d.Originate(pos, dist)
	n.fls[org].Originate(q, res.Skyline, n.quorum, n.strat, n.io(org))
	n.run()

	key := q.Key()
	got, want := n.completed[key], skyline.Constrained(all, pos, dist)
	if n.strat == DepthFirst && n.dup {
		for _, u := range got {
			if u.Pos().Dist(pos) > dist || !skyline.Contains(all, u) {
				t.Errorf("org %d: result tuple %v is no tuple in range", org, u)
			}
		}
		if !skyline.SetEqual(skyline.BNL(got), got) {
			t.Errorf("org %d: result is not a skyline", org)
		}
	} else if !skyline.SetEqual(got, want) {
		t.Errorf("org %d: %d tuples, want %d", org, len(got), len(want))
	}
	for id, c := range n.processed[key] {
		if DeviceID(id) != org && c != 1 {
			t.Errorf("org %d: device %d processed the query %d times", org, id, c)
		}
	}
	if n.strat != DepthFirst {
		if _, _, complete := n.fls[org].Outcome(key); !complete {
			t.Errorf("org %d: query not complete", org)
		}
	}
	for id, fl := range n.fls {
		if len(fl.walks) != 0 {
			t.Errorf("org %d: device %d holds %d relay walks after the walk ended", org, id, len(fl.walks))
		}
	}
}

// FuzzFloodOrder fuzzes the delivery schedule: for each input it runs one
// BF, one SF and one DF query over the 3×3 channel from an originator the
// seed picks, delivering pending steps in the order a shuffle seeded by it
// picks, and checks each result against the constrained-skyline oracle.
// DF's links stay FIFO.
func FuzzFloodOrder(f *testing.F) {
	for _, seed := range []int64{0, 11, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		for _, strat := range []Strategy{BreadthFirst, SamplingFilter, DepthFirst} {
			n, all := newGridNet(t, strat)
			n.pick = rand.New(rand.NewSource(seed)).Intn
			n.linkFIFO = strat == DepthFirst
			n.originate(DeviceID(uint64(seed)%uint64(len(n.fls))), all)
			if n.completes != 1 {
				t.Errorf("%v: %d completions for one query", strat, n.completes)
			}
		}
	})
}

// TestFloodMachineQuorumCountsDistinctSenders replays one device's result
// to the originator: the repeat must not count toward the quorum.
func TestFloodMachineQuorumCountsDistinctSenders(t *testing.T) {
	devs := staticDevices(t, 500, 2, 3, gen.Independent, Under, true, 2)
	n := newChanNet(t, devs, 3, FloodOptions{})
	n.quorum = 2
	fl := n.fls[0]
	q, res := devs[0].Originate(devs[0].Rel.MBR().Center(), Unconstrained())
	fl.Originate(q, res.Skyline, n.quorum, BreadthFirst, n.io(0))
	n.queue = nil // the test delivers by hand
	reply := Msg{Kind: MsgResult, Q: keyQuery(q.Key()), From: 4}
	for i := 0; i < 3; i++ {
		if dup := n.deliver(0, &reply); dup != (i > 0) {
			t.Errorf("delivery %d: dup = %v", i, dup)
		}
	}
	if _, results, complete := fl.Outcome(q.Key()); results != 1 || complete {
		t.Fatalf("after one sender thrice: results=%d complete=%v", results, complete)
	}
	reply.From = 5
	n.deliver(0, &reply)
	if _, results, complete := fl.Outcome(q.Key()); results != 2 || !complete || n.completes != 1 {
		t.Errorf("after two senders: results=%d complete=%v completions=%d", results, complete, n.completes)
	}
}

// TestFloodMachineFilterDuringPendingProcessing pins the rule for an SF
// filter flood that reaches a device while its own sampling-round
// processing is still pending: that copy changes nothing, and the next copy
// is answered. The device sends survivors exactly once.
func TestFloodMachineFilterDuringPendingProcessing(t *testing.T) {
	devs := staticDevices(t, 2000, 2, 3, gen.Independent, Under, true, 3)
	n := newChanNet(t, devs, 3, FloodOptions{SampleK: 2, SampleTTL: 1, FilterK: 2})
	n.pick = func(int) int { return 0 }
	q, res := devs[0].Originate(devs[0].Rel.MBR().Center(), Unconstrained())
	n.fls[0].Originate(q, res.Skyline, n.quorum, SamplingFilter, n.io(0))
	bare := q.WithFilter(nil, 0)
	bare.Extra = nil
	filters := QuantizeFilters(res.Skyline[:1], devs[0].Schema)
	n.queue = nil

	const x = 1 // a neighbour of the originator
	fl, io := n.fls[x], n.io(x)
	req := Msg{Kind: MsgSampleReq, Q: bare, SampleK: 2, TTL: 1, Hops: 1}
	fl.Receive(&req, io)
	if len(n.queue) != 1 || !n.queue[0].done {
		t.Fatalf("sample request: queue %+v, want one pending processing", n.queue)
	}
	pending := n.queue[0]
	n.queue = nil
	filt := Msg{Kind: MsgFilters, Q: bare, Tuples: filters, Hops: 1}
	fl.Receive(&filt, io)
	if len(n.queue) != 0 {
		t.Fatalf("filter flood during processing emitted %d steps, want none", len(n.queue))
	}
	fl.Processed(&pending.m, pending.res, io)
	if len(n.queue) != 1 || n.queue[0].m.Kind != MsgSample {
		t.Fatalf("processing done: queue %+v, want one sample", n.queue)
	}
	for i := 0; i < 3; i++ {
		fl.Receive(&filt, io)
	}
	if n.survivors[x] != 1 {
		t.Errorf("device sent survivors %d times, want 1", n.survivors[x])
	}
}

// TestFloodMachineOverlappingQueries keeps two BF queries of one
// originator in flight at once over the 3×3 channel, delivered in FIFO
// order, so copies of the earlier query reach devices after the later one
// did. Each device must process each query once, and both must complete
// with the exact result: a late copy of the earlier query is a duplicate,
// not a new query that floods again.
func TestFloodMachineOverlappingQueries(t *testing.T) {
	const dist = 450
	n, all := newGridNet(t, BreadthFirst)
	n.pick = func(int) int { return 0 }
	for _, org := range []DeviceID{0, 4} {
		d := n.fls[org].Dev
		pos := d.Rel.MBR().Center()
		var keys []QueryKey
		for range 2 {
			q, res := d.Originate(pos, dist)
			n.fls[org].Originate(q, res.Skyline, n.quorum, BreadthFirst, n.io(org))
			keys = append(keys, q.Key())
		}
		n.run()
		want := skyline.Constrained(all, pos, dist)
		for _, key := range keys {
			if !skyline.SetEqual(n.completed[key], want) {
				t.Errorf("query %v: %d tuples, want %d", key, len(n.completed[key]), len(want))
			}
			for id, c := range n.processed[key] {
				if DeviceID(id) != org && c != 1 {
					t.Errorf("query %v: device %d processed it %d times", key, id, c)
				}
			}
		}
	}
}

// TestFloodMachineLateSampleRequest delivers an SF sample request of query
// k to a device after it processed the sample request of k+1: the late
// request is answered, but k+1's stored local skyline stays, so k+1's
// filter flood is answered from it, once, with no second evaluation.
func TestFloodMachineLateSampleRequest(t *testing.T) {
	devs := staticDevices(t, 2000, 2, 3, gen.Independent, Under, true, 3)
	n := newChanNet(t, devs, 3, FloodOptions{SampleK: 2, SampleTTL: 1, FilterK: 2})
	var reqs []Msg
	var filters []tuple.Tuple
	for range 2 {
		q, res := devs[0].Originate(devs[0].Rel.MBR().Center(), Unconstrained())
		n.fls[0].Originate(q, res.Skyline, n.quorum, SamplingFilter, n.io(0))
		bare := q.WithFilter(nil, 0)
		bare.Extra = nil
		reqs = append(reqs, Msg{Kind: MsgSampleReq, Q: bare, SampleK: 2, TTL: 1, Hops: 1})
		filters = QuantizeFilters(res.Skyline[:1], devs[0].Schema)
	}
	n.queue = nil

	const x = 1 // a neighbour of the originator
	fl, io := n.fls[x], n.io(x)
	for _, req := range []Msg{reqs[1], reqs[0]} {
		fl.Receive(&req, io)
		if len(n.queue) != 1 || !n.queue[0].done {
			t.Fatalf("sample request %d: queue %+v, want one pending processing", req.Q.Cnt, n.queue)
		}
		pending := n.queue[0]
		n.queue = nil
		fl.Processed(&pending.m, pending.res, io)
		n.queue = nil
	}
	filt := Msg{Kind: MsgFilters, Q: reqs[1].Q, Tuples: filters, Hops: 1}
	for range 2 {
		fl.Receive(&filt, io)
	}
	if c := n.processed[reqs[1].Q.Key()][x]; c != 1 {
		t.Errorf("query %d processed %d times at device %d, want 1", reqs[1].Q.Cnt, c, x)
	}
	if n.survivors[x] != 1 {
		t.Errorf("device sent survivors %d times, want 1", n.survivors[x])
	}
}

// nopIO discards the machine's outputs.
type nopIO struct{}

func (nopIO) Process(*Msg)                     {}
func (nopIO) Send(DeviceID, Msg)               {}
func (nopIO) Next([]DeviceID) DeviceID         { return -1 }
func (nopIO) Reissued(QueryKey, int)           {}
func (nopIO) Flood(Msg)                        {}
func (nopIO) Arm(QueryKey, Timer, int)         {}
func (nopIO) Merged(*Msg, []tuple.Tuple)       {}
func (nopIO) Complete(QueryKey, []tuple.Tuple) {}

// TestFloodRelayPathAllocationFree pins the BF relay path — a first-time
// query, then its processing result: reply and forward — at zero
// allocations in the machine.
func TestFloodRelayPathAllocationFree(t *testing.T) {
	devs := staticDevices(t, 500, 2, 2, gen.Independent, Under, true, 4)
	q, _ := devs[0].Originate(devs[0].Rel.MBR().Center(), Unconstrained())
	res := devs[1].Process(q)
	fl := &Flood{Dev: devs[1]}
	var io FloodIO = nopIO{}
	m := Msg{Kind: MsgQuery, Q: q, Hops: 1}
	allocs := testing.AllocsPerRun(200, func() {
		m.Q.Cnt++ // a fresh query each run
		fl.Receive(&m, io)
		fl.Processed(&m, res, io)
	})
	if allocs != 0 {
		t.Errorf("relay path: %v allocs per query, want 0", allocs)
	}
}
