package aodv

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"manetskyline/internal/radio"
	"manetskyline/internal/tuple"
)

// --- the maps the tables replaced, kept as the reference ---------------------

type mapRoute struct {
	nextHop radio.NodeID
	seq     uint32
	hops    int
	expires float64
	valid   bool
}

type mapRoutes struct {
	m        map[radio.NodeID]*mapRoute
	lifetime float64
}

func (o *mapRoutes) touch(now float64, dst, nextHop radio.NodeID, seq uint32, hops int) {
	r, ok := o.m[dst]
	fresher := !ok || !r.valid || r.expires <= now ||
		seq > r.seq || (seq == r.seq && hops < r.hops)
	if fresher {
		o.m[dst] = &mapRoute{nextHop: nextHop, seq: seq, hops: hops, expires: now + o.lifetime, valid: true}
		return
	}
	if r.nextHop == nextHop {
		r.expires = now + o.lifetime
	}
}

func (o *mapRoutes) validRoute(now float64, dst radio.NodeID) *mapRoute {
	r, ok := o.m[dst]
	if !ok || !r.valid || r.expires <= now {
		return nil
	}
	return r
}

func (o *mapRoutes) invalidateVia(neighbor radio.NodeID) []radio.NodeID {
	var lost []radio.NodeID
	for dst, r := range o.m {
		if r.valid && r.nextHop == neighbor {
			r.valid = false
			lost = append(lost, dst)
		}
	}
	slices.Sort(lost)
	return lost
}

func (o *mapRoutes) rerr(from, dst radio.NodeID) {
	if r, ok := o.m[dst]; ok && r.valid && r.nextHop == from {
		r.valid = false
	}
}

type mapSeenKey struct {
	orig radio.NodeID
	id   uint32
}

type mapSeen map[mapSeenKey]float64

func (m mapSeen) checkAndSet(k mapSeenKey, now, lifetime float64) bool {
	if exp, ok := m[k]; ok && exp > now {
		return true
	}
	m[k] = now + lifetime
	return false
}

// --- key pools ---------------------------------------------------------------

// routeKeyPool is the destinations the differential draws from: ten that
// share a home slot at every capacity up to 32 (the five top hash bits of
// key 0), then the edges of the ID space.
func routeKeyPool() []radio.NodeID {
	t := routeTable{shift: tableShift(32, 32)}
	var pool []radio.NodeID
	for k := int32(0); len(pool) < 10; k++ {
		if t.home(k) == 0 {
			pool = append(pool, radio.NodeID(k))
		}
	}
	return append(pool, 1, 2, 3, 1<<16-1, 1<<16, 70000, 1<<20, 1<<30, math.MaxInt32)
}

// seenKeyPool is the same for (orig, id) pairs: twenty that collide at every
// capacity up to 32, the zero pair and its neighbours, and the far corners.
func seenKeyPool() []mapSeenKey {
	s := seenSet{shift: tableShift(64, 32)}
	var pool []mapSeenKey
	for id := uint32(0); len(pool) < 20; id++ {
		if s.home(seenKey(7, id)) == 0 {
			pool = append(pool, mapSeenKey{7, id})
		}
	}
	for orig := radio.NodeID(0); orig < 4; orig++ {
		for id := uint32(0); id < 4; id++ {
			pool = append(pool, mapSeenKey{orig, id})
		}
	}
	return append(pool,
		mapSeenKey{1 << 16, 0}, mapSeenKey{1 << 16, math.MaxUint32},
		mapSeenKey{math.MaxInt32, 0}, mapSeenKey{math.MaxInt32, math.MaxUint32})
}

// --- differentials -----------------------------------------------------------

// routeOps decodes data four bytes per operation and applies each to a real
// node and to the map oracle, comparing every answer.
func routeOps(t *testing.T, data []byte) {
	t.Helper()
	w := build(t, tuple.Point{})
	nd := w.net.nodes[0]
	or := &mapRoutes{m: map[radio.NodeID]*mapRoute{}, lifetime: w.net.cfg.RouteLifetime}
	pool := routeKeyPool()
	key := func(b byte) radio.NodeID { return pool[int(b)%len(pool)] }
	same := func(what string, dst radio.NodeID, got *route, want *mapRoute) {
		t.Helper()
		if (got == nil) != (want == nil) {
			t.Fatalf("%s(%d): table %v, map %v", what, dst, got, want)
		}
		if got == nil {
			return
		}
		if radio.NodeID(got.nextHop) != want.nextHop || got.seq != want.seq ||
			int(got.hops) != want.hops || got.expires != want.expires || got.valid != want.valid {
			t.Fatalf("%s(%d): table %+v, map %+v", what, dst, *got, *want)
		}
	}
	for ; len(data) >= 4; data = data[4:] {
		op, a, b, c := data[0]%8, data[1], data[2], data[3]
		now := w.eng.Now()
		switch op {
		case 0, 1, 2:
			hops := int(c>>2)%8 + 1
			if c >= 250 {
				hops = maxHops
			}
			nd.touchRoute(key(a), key(b), uint32(c%4), hops)
			or.touch(now, key(a), key(b), uint32(c%4), hops)
			same("after touch", key(a), nd.routes.find(key(a)), or.m[key(a)])
		case 3:
			same("validRoute", key(a), nd.validRoute(key(a)), or.validRoute(now, key(a)))
		case 4:
			got, want := nd.invalidateVia(key(b)), or.invalidateVia(key(b))
			if !slices.Equal(got, want) {
				t.Fatalf("invalidateVia(%d): table %v, map %v", key(b), got, want)
			}
		case 5:
			nd.handleRERR(key(b), &rerrPkt{Dst: key(a)})
			or.rerr(key(b), key(a))
		default:
			w.eng.Run(now + float64(c)/8) // up to 32 s: routes live 15
		}
	}
	if nd.routes.n != len(or.m) {
		t.Fatalf("table holds %d destinations, map %d", nd.routes.n, len(or.m))
	}
	for _, dst := range pool {
		same("final", dst, nd.routes.find(dst), or.m[dst])
	}
}

// seenOps is routeOps for the dedup cache, three bytes per operation.
func seenOps(t *testing.T, data []byte) {
	t.Helper()
	const lifetime = 30.0
	var s seenSet
	or := mapSeen{}
	pool := seenKeyPool()
	now := 0.0
	for ; len(data) >= 3; data = data[3:] {
		if data[0]%4 == 0 {
			now += float64(data[2]) / 4 // up to 64 s
			continue
		}
		k := pool[int(data[1])%len(pool)]
		got := s.checkAndSet(seenKey(k.orig, k.id), now, now+lifetime)
		if want := or.checkAndSet(k, now, lifetime); got != want {
			t.Fatalf("t=%g %+v: table says seen=%v, map %v", now, k, got, want)
		}
		if overloaded(s.n, len(s.slots)) {
			t.Fatalf("t=%g: %d entries in %d slots", now, s.n, len(s.slots))
		}
	}
}

// opBytes makes testing/quick generate op strings long enough to fill the
// key pool and grow the tables several times.
func opBytes(v []reflect.Value, r *rand.Rand) {
	b := make([]byte, r.Intn(4000))
	r.Read(b)
	v[0] = reflect.ValueOf(b)
}

func TestQuickRouteTableMatchesMap(t *testing.T) {
	f := func(data []byte) bool { routeOps(t, data); return true }
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Values: opBytes}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSeenSetMatchesMap(t *testing.T) {
	f := func(data []byte) bool { seenOps(t, data); return true }
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Values: opBytes}); err != nil {
		t.Fatal(err)
	}
}

func FuzzRouteTable(f *testing.F) {
	// Fill the colliding keys through two growths, break a neighbour, let
	// everything expire, touch again.
	seed := []byte{}
	for k := byte(0); k < 19; k++ {
		seed = append(seed, 0, k, k%3, k)
	}
	seed = append(seed, 4, 0, 1, 0, 5, 3, 0, 0, 7, 0, 0, 255, 0, 0, 0, 0, 3, 0, 0, 0)
	f.Add(seed)
	f.Fuzz(routeOps)
}

func FuzzSeenSet(f *testing.F) {
	seed := []byte{}
	for k := byte(0); k < 40; k++ {
		seed = append(seed, 1, k, 0)
	}
	seed = append(seed, 0, 0, 119, 1, 0, 0, 0, 0, 2, 1, 0, 0) // 29.75 s: seen; 30.25 s: not
	f.Add(seed)
	f.Fuzz(seenOps)
}

// --- the cases the random walk might miss -------------------------------------

func TestSlotsArePacked(t *testing.T) {
	if s := unsafe.Sizeof(route{}); s != 24 {
		t.Errorf("route slot is %d bytes, want 24", s)
	}
	if s := unsafe.Sizeof(seenSlot{}); s != 16 {
		t.Errorf("seen slot is %d bytes, want 16", s)
	}
}

// TestRouteTableGrowsMidChain inserts keys that all hash to one home slot:
// the insert that finds the ¾ limit does so at the end of a full probe
// chain, grows, and must still land — and leave every earlier route intact.
func TestRouteTableGrowsMidChain(t *testing.T) {
	pool := routeKeyPool()[:10]
	var tab routeTable
	for i, dst := range pool {
		r := tab.findOrInsert(dst)
		if r.valid || r.seq != 0 {
			t.Fatalf("fresh slot for %d is not zero: %+v", dst, *r)
		}
		r.valid, r.seq = true, uint32(i+1)
		for j, d := range pool[:i+1] {
			if got := tab.find(d); got == nil || got.seq != uint32(j+1) {
				t.Fatalf("after inserting %d keys, find(%d) = %+v", i+1, d, got)
			}
		}
		if overloaded(tab.n, len(tab.slots)) {
			t.Fatalf("%d entries in %d slots", tab.n, len(tab.slots))
		}
	}
	if tab.find(1) != nil {
		t.Error("find of a key never inserted returned a slot")
	}
	if len(tab.slots) != 16 {
		t.Errorf("10 routes took %d slots, want 16", len(tab.slots))
	}
}

// TestZeroKeysAreNotEmptySlots: destination 0 and the pair (0, 0) are real
// keys, distinct from a slot nobody has claimed.
func TestZeroKeysAreNotEmptySlots(t *testing.T) {
	var tab routeTable
	if tab.find(0) != nil {
		t.Error("empty table holds destination 0")
	}
	tab.findOrInsert(5)
	if tab.find(0) != nil {
		t.Error("destination 0 found before it was inserted")
	}
	tab.findOrInsert(0).valid = true
	if r := tab.find(0); r == nil || !r.valid || tab.n != 2 {
		t.Errorf("destination 0 lost: %+v, n=%d", r, tab.n)
	}

	var s seenSet
	if s.checkAndSet(seenKey(0, 0), 0, 30) {
		t.Error("(0,0) seen in an empty set")
	}
	if !s.checkAndSet(seenKey(0, 0), 1, 31) {
		t.Error("(0,0) forgotten")
	}
	if s.checkAndSet(seenKey(0, 1), 1, 31) || s.checkAndSet(seenKey(1, 0), 1, 31) {
		t.Error("(0,1) or (1,0) aliases (0,0)")
	}
	if seenKey(1<<16, 7) == seenKey(0, 7) || seenKey(math.MaxInt32, math.MaxUint32) == 0 {
		t.Error("seenKey loses high bits")
	}
}

// TestSeenSetBoundedByLiveFloods is the regression for the dedup cache that
// only ever grew: a week of floods at a steady rate must leave the table
// sized by one SeenLifetime of them, and answer as the map did throughout.
func TestSeenSetBoundedByLiveFloods(t *testing.T) {
	const (
		floods   = 200000
		week     = 7 * 24 * 3600.0
		lifetime = 30.0
		dt       = week / floods // 3.024 s
	)
	perWindow := int(math.Ceil(lifetime / dt))
	var s seenSet
	or := mapSeen{}
	key := func(i int) mapSeenKey { return mapSeenKey{radio.NodeID(i % 100), uint32(i / 100)} }
	check := func(now float64, k mapSeenKey) bool {
		t.Helper()
		got := s.checkAndSet(seenKey(k.orig, k.id), now, now+lifetime)
		if want := or.checkAndSet(k, now, lifetime); got != want {
			t.Fatalf("t=%g %+v: table says seen=%v, map %v", now, k, got, want)
		}
		return got
	}
	maxSlots := 0
	for i := 0; i < floods; i++ {
		now := float64(i) * dt
		if check(now, key(i)) {
			t.Fatalf("flood %d seen on first arrival", i)
		}
		// Every thousandth flood comes back 27.2 s later (remembered) and
		// again 30.2 s after its first arrival (expired: a new flood).
		switch i % 1000 {
		case 9:
			if !check(now, key(i-9)) {
				t.Fatalf("flood %d forgotten %g s after arrival", i-9, 9*dt)
			}
		case 10:
			if check(now, key(i-10)) {
				t.Fatalf("flood %d still remembered %g s after arrival", i-10, 10*dt)
			}
		}
		delete(or, key(i-50)) // long expired; keeps the oracle small
		maxSlots = max(maxSlots, len(s.slots))
	}
	if limit := 8 * perWindow; maxSlots > limit {
		t.Errorf("seen table reached %d slots for %d live floods per window, want ≤ %d", maxSlots, perWindow, limit)
	}
}

// TestRouteTableTracksDestinationsNotRefreshes: the same few destinations
// refreshed all week take the slots of a few destinations.
func TestRouteTableTracksDestinationsNotRefreshes(t *testing.T) {
	w := build(t, tuple.Point{})
	nd := w.net.nodes[0]
	const dests = 16
	for i := 0; i < 200000; i++ {
		w.eng.Run(float64(i) * 3)
		nd.touchRoute(radio.NodeID(1+i%dests), radio.NodeID(1+i%3), uint32(i), 1+i%5)
	}
	if nd.routes.n != dests || len(nd.routes.slots) > 4*dests {
		t.Errorf("%d destinations in %d slots after 200000 refreshes", nd.routes.n, len(nd.routes.slots))
	}
}

// TestHopsSaturate: the slot's hop field is 16 bits. A TTL it cannot hold is
// refused, and an application flood's hop count beyond it saturates — it
// must not wrap to a small number that then looks like the better route.
func TestHopsSaturate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TTL = maxHops
	if err := cfg.Validate(); err != nil {
		t.Errorf("TTL %d refused: %v", cfg.TTL, err)
	}
	cfg.TTL = maxHops + 1
	if cfg.Validate() == nil {
		t.Errorf("TTL %d accepted", cfg.TTL)
	}

	w := build(t, tuple.Point{}, tuple.Point{X: 100})
	nd := w.net.nodes[0]
	nd.receive(1, &localRoutedPkt{Orig: 9, Hops: 1 << 20, Inner: msg(0)})
	if r := nd.validRoute(9); r == nil || r.hops != maxHops {
		t.Fatalf("route from a 2^20-hop flood: %+v, want hops %d", r, maxHops)
	}
	nd.receive(1, &localRoutedPkt{Orig: 9, Hops: 3, Inner: msg(0)})
	if r := nd.validRoute(9); r == nil || r.hops != 3 {
		t.Fatalf("3-hop route did not replace the saturated one: %+v", r)
	}
	nd.receive(1, &localRoutedPkt{Orig: 9, Hops: 1<<16 + 1, Inner: msg(0)})
	if r := nd.validRoute(9); r == nil || r.hops != 3 {
		t.Fatalf("a 65537-hop flood displaced a 3-hop route: %+v", r)
	}
}
