package aodv

import (
	"math"
	"math/bits"

	"manetskyline/internal/radio"
)

// A node's routes and its RREQ dedup cache are two open-addressed tables:
// linear probing over a power-of-two slot array, Fibonacci hashing, entries
// inline. The flood path does one lookup-or-insert in each per received
// frame, so both are one probe with no hashing of a struct key and no heap
// object per entry. Both start empty and take 4 slots on first use: at
// 30 000 devices most nodes hold a handful of entries, and what a slot costs
// is paid 30 000 times over.

const minSlots = 4

// overloaded reports whether n entries exceed the ¾ load limit of a table
// of the given capacity.
func overloaded(n, slots int) bool { return n*4 > slots*3 }

// tableShift returns the shift that maps the top bits of a width-bit hash
// onto a table of the given power-of-two capacity.
func tableShift(width, slots int) uint8 {
	return uint8(width - bits.TrailingZeros(uint(slots)))
}

// maxHops is the largest hop count a route slot holds; larger counts
// saturate, and Config.Validate rejects a TTL beyond it.
const maxHops = math.MaxUint16

// route is one routing-table slot, packed to 24 bytes.
type route struct {
	expires float64
	dst     int32 // the key; meaningful only when used
	nextHop int32
	seq     uint32
	hops    uint16
	used    bool // the slot holds dst; never cleared, routes are not deleted
	valid   bool
}

// routeTable maps destinations to routes. Pointers it returns address the
// slot array and die with the next findOrInsert.
type routeTable struct {
	slots []route
	n     int
	shift uint8
}

func (t *routeTable) home(key int32) int {
	return int(uint32(key) * 0x9E3779B1 >> t.shift)
}

// slot returns the slot holding key or, when key is absent, the unused one
// where it belongs; nil for a table with no slots yet.
func (t *routeTable) slot(key int32) *route {
	mask := len(t.slots) - 1
	if mask < 0 {
		return nil
	}
	for i := t.home(key); ; i = (i + 1) & mask {
		if r := &t.slots[i]; !r.used || r.dst == key {
			return r
		}
	}
}

// find returns dst's route, or nil when dst was never inserted.
func (t *routeTable) find(dst radio.NodeID) *route {
	if r := t.slot(int32(dst)); r != nil && r.used {
		return r
	}
	return nil
}

// findOrInsert returns dst's route, claiming a zero (invalid) one when dst
// is new.
func (t *routeTable) findOrInsert(dst radio.NodeID) *route {
	key := int32(dst)
	r := t.slot(key)
	if r != nil && r.used {
		return r
	}
	if r == nil || overloaded(t.n+1, len(t.slots)) {
		t.grow()
		r = t.slot(key)
	}
	t.n++
	r.used, r.dst = true, key
	return r
}

func (t *routeTable) grow() {
	old := t.slots
	size := max(minSlots, 2*len(old))
	t.slots = make([]route, size)
	t.shift = tableShift(32, size)
	for _, r := range old {
		if r.used {
			*t.slot(r.dst) = r
		}
	}
}

// seenSet remembers (orig, rreqID) pairs until their expiry. An expired
// entry answers "unseen" and is dropped by the next rehash, so the table is
// sized by the floods alive in the last SeenLifetime, not by the run.
type seenSet struct {
	slots []seenSlot
	n     int // occupied slots, expired entries included
	shift uint8
}

type seenSlot struct {
	key uint64 // 0 = empty
	exp float64
}

// seenKey packs the pair; the +1 keeps (0, 0) off the empty-slot value.
func seenKey(orig radio.NodeID, id uint32) uint64 {
	return (uint64(uint32(orig))+1)<<32 | uint64(id)
}

func (s *seenSet) home(key uint64) int {
	return int(key * 0x9E3779B97F4A7C15 >> s.shift)
}

// slot returns the slot holding key or, when key is absent, the empty one
// where it belongs; nil for a table with no slots yet.
func (s *seenSet) slot(key uint64) *seenSlot {
	mask := len(s.slots) - 1
	if mask < 0 {
		return nil
	}
	for i := s.home(key); ; i = (i + 1) & mask {
		if e := &s.slots[i]; e.key == key || e.key == 0 {
			return e
		}
	}
}

// checkAndSet reports whether key is remembered at time now; when it is
// not, it remembers key until exp.
func (s *seenSet) checkAndSet(key uint64, now, exp float64) bool {
	e := s.slot(key)
	if e != nil && e.key == key {
		if e.exp > now {
			return true
		}
		e.exp = exp
		return false
	}
	if e == nil || overloaded(s.n+1, len(s.slots)) {
		s.rehash(now)
		e = s.slot(key)
	}
	s.n++
	*e = seenSlot{key: key, exp: exp}
	return false
}

// rehash rebuilds the table from the entries still alive at now, sized so
// they load it to at most ½: at least a quarter of the slots are then free
// before the ¾ limit asks for the next rehash.
func (s *seenSet) rehash(now float64) {
	alive := func(e seenSlot) bool { return e.key != 0 && e.exp > now }
	live := 0
	for _, e := range s.slots {
		if alive(e) {
			live++
		}
	}
	size := minSlots
	for (live+1)*2 > size {
		size *= 2
	}
	old := s.slots
	s.slots = make([]seenSlot, size)
	s.shift = tableShift(64, size)
	s.n = live
	for _, e := range old {
		if alive(e) {
			*s.slot(e.key) = e
		}
	}
}
