package core

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"sync"

	"manetskyline/internal/tuple"
)

// Merge performs the assembly step of §4.3 at the query originator (and, in
// depth-first forwarding, at every device on the return path): it folds one
// incoming reduced local skyline SK'_i into the current partial result.
//
// Both tasks of §4.3 happen here: duplicate elimination — tuples at the same
// (x, y) location are the same site, possibly received from overlapping
// local relations — and removal of non-qualifying tuples in either direction
// of dominance. Incoming tuples are taken in order. One that shares its
// place with, or is dominated by, a tuple merged so far is dropped;
// otherwise it evicts every merged tuple it dominates and joins the result
// behind the survivors, which keep their order. The result is a correct
// skyline of the union of the inputs whenever both inputs were skylines
// themselves; the paper's assumption that no two distinct sites share a
// location makes the (x, y) duplicate test sufficient.
//
// Those decisions are existential over the merged set, so the order in which
// it is probed is free. Merge copies the set into flat rows sorted by the
// sum of the attributes. Rounding is monotone, so a dominator's sum never
// exceeds its victim's: only rows at or below an incoming tuple's sum can
// dominate it, probed strongest first so a dominated tuple leaves early,
// and only rows at or above can be dominated by it. Sums may tie where the
// attributes do not ({1e16, 1} and {1e16, 0}), so ties are probed both ways.
// Each probe first compares the attributes quantized into one word (see
// pack), which rejects most rows in a subtraction; the float comparison
// decides the rest.
//
// current is modified in place and must not be reused afterwards.
func Merge(current, incoming []tuple.Tuple) []tuple.Tuple {
	if len(incoming) == 0 {
		return current
	}
	m := mergePool.Get().(*merger)
	out := m.merge(current, incoming)
	mergePool.Put(m)
	return out
}

// MergeAll assembles partial results into the skyline of their union, each
// site once, in one sort-filter pass (DESIGN §8). The result is fresh and
// ascends by (score, packed word, attributes, place); inputs are never
// written. Inputs no sum orders or no word packs are folded through Merge.
func MergeAll(results ...[]tuple.Tuple) []tuple.Tuple {
	m := mergePool.Get().(*merger)
	out, ok := m.mergeAll(results)
	mergePool.Put(m)
	for i := 0; !ok && i < len(results); i++ {
		out = Merge(out, results[i])
	}
	return out
}

// merger is Merge's working memory, recycled so that a steady stream of
// merges allocates only what the result itself grows by.
//
// Row k < sorted belongs to current[id[k]], and those rows ascend by score;
// a later row belongs to the accepted incoming[id[k]-sorted], in order of
// acceptance. dead is indexed by id, the order of the output.
type merger struct {
	order  []scored  // current by ascending score
	stride int       // widest tuple; narrower rows are zero-padded
	attrs  []float64 // row k at [k*stride, (k+1)*stride)
	packed []uint64  // row k's attributes, quantized; see pack
	xs, ys []float64
	score  []float64
	dims   []int32
	id     []int32
	dead   []bool
	sorted int

	// Quantization of the first fields attributes into bits-wide fields of
	// one word: attribute j maps to (v-base[j])*scale[j], and guard holds
	// the top bit of every field.
	fields, bits int
	base, scale  [maxFields]float64
	guard        uint64

	evict []int32
	keys  [][3]uint64 // MergeAll's sort keys: packed word, score bits, source<<32 | position
}

type scored struct {
	score float64
	idx   int32
}

// maxFields bounds how many attributes pack quantizes: past eight the
// fields get too coarse to reject much.
const maxFields = 8

var mergePool = sync.Pool{New: func() any { return new(merger) }}

// scoreOf is the monotone probe key: t dominates u only if
// scoreOf(t) <= scoreOf(u).
func scoreOf(t tuple.Tuple) float64 {
	s := 0.0
	for _, v := range t.Attrs {
		s += v
	}
	return s
}

func (m *merger) merge(current, incoming []tuple.Tuple) []tuple.Tuple {
	// Irregular inputs score one tie and pack to zero: every pair is tested
	// in full both ways.
	score := scoreOf
	if !m.measure(current, incoming) {
		score = func(tuple.Tuple) float64 { return 0 }
	}
	m.order = m.order[:0]
	for i, t := range current {
		m.order = append(m.order, scored{score(t), int32(i)})
	}
	slices.SortFunc(m.order, func(a, b scored) int { return cmp.Compare(a.score, b.score) })

	m.attrs, m.packed, m.xs, m.ys = m.attrs[:0], m.packed[:0], m.xs[:0], m.ys[:0]
	m.score, m.dims, m.id = m.score[:0], m.dims[:0], m.id[:0]
	for _, o := range m.order {
		m.push(current[o.idx], o.score, o.idx)
	}
	m.sorted = len(current)
	m.dead = slices.Grow(m.dead[:0], len(current)+len(incoming))[:len(current)+len(incoming)]
	clear(m.dead)

	evicted := false
	for i, t := range incoming {
		s, p := score(t), m.pack(t.Attrs)
		// Dominators sit among the sorted rows scoring at most s and the
		// unsorted accepted ones; victims from the first row scoring s on.
		sorted := m.score[:m.sorted]
		atMost := sort.Search(len(sorted), func(k int) bool { return sorted[k] > s })
		if m.blocked(0, atMost, t, p) || m.blocked(m.sorted, len(m.id), t, p) {
			continue
		}
		if m.evicts(sort.SearchFloat64s(sorted, s), t, p) {
			continue
		}
		for _, id := range m.evict {
			m.dead[id] = true
			evicted = evicted || int(id) < m.sorted
		}
		m.push(t, s, int32(m.sorted+i))
	}

	out := current
	if evicted {
		out = current[:0]
		for i, t := range current {
			if !m.dead[i] {
				out = append(out, t)
			}
		}
	}
	for _, id := range m.id[m.sorted:] {
		if !m.dead[id] {
			out = append(out, incoming[int(id)-m.sorted])
		}
	}
	return out
}

// measure quantizes groups for pack and reports whether they are regular:
// no NaN score (a NaN attribute, or opposite infinities), one width.
func (m *merger) measure(groups ...[]tuple.Tuple) bool {
	var lo, hi [maxFields]float64
	for j := range lo {
		lo[j], hi[j] = math.Inf(1), math.Inf(-1)
	}
	width, regular := -1, true
	for _, g := range groups {
		for _, t := range g {
			s := scoreOf(t)
			regular = regular && s == s && (width < 0 || len(t.Attrs) == width)
			width = max(width, len(t.Attrs))
			for j, v := range t.Attrs[:min(len(t.Attrs), maxFields)] {
				lo[j], hi[j] = min(lo[j], v), max(hi[j], v)
			}
		}
	}
	m.stride, m.fields = max(width, 0), 0
	if regular {
		m.fields = min(m.stride, maxFields)
	}
	m.quantize(lo, hi)
	return regular
}

// mergeAll is MergeAll's single pass; false means the inputs need the fold.
func (m *merger) mergeAll(results [][]tuple.Tuple) ([]tuple.Tuple, bool) {
	if !m.measure(results...) {
		return nil, false
	}
	m.keys = m.keys[:0]
	for r, ts := range results {
		for i, t := range ts {
			// Bits that sort as the score does: sums start at +0, never reach -0.
			s := math.Float64bits(scoreOf(t))
			m.keys = append(m.keys, [3]uint64{m.pack(t.Attrs), s ^ (uint64(int64(s)>>63) | 1<<63), uint64(r)<<32 | uint64(i)})
		}
	}
	n := len(m.keys)
	m.keys = slices.Grow(m.keys, n)[:2*n]
	keys := radixSort(m.keys[:n], m.keys[n:])
	at := func(c [3]uint64) tuple.Tuple { return results[c[2]>>32][uint32(c[2])] }
	// Exact ties go in attribute order, dominators first, then by place.
	for i, j := 0, 0; i < len(keys); i = j {
		for j = i + 1; j < len(keys) && [2]uint64(keys[j][:2]) == [2]uint64(keys[i][:2]); j++ {
		}
		slices.SortFunc(keys[i:j], func(a, b [3]uint64) int {
			t, u := at(a), at(b)
			return cmp.Or(slices.Compare(t.Attrs, u.Attrs), cmp.Compare(t.X, u.X), cmp.Compare(t.Y, u.Y))
		})
	}
	m.attrs, m.packed = m.attrs[:0], m.packed[:0]
	guard, stride := m.guard, m.stride
next:
	for k, c := range keys {
		t, w := at(c), c[0]
		for r, q := range m.packed {
			if (w|guard-q)&guard == guard && (tuple.Tuple{Attrs: m.attrs[r*stride : (r+1)*stride]}).Dominates(t) {
				continue next
			}
		}
		// A copy, which cannot dominate, follows its survivor.
		if k > 0 && at(keys[k-1]).Equal(t) {
			continue
		}
		// Survivors gather at the front of keys, in slot k or one passed.
		keys[len(m.packed)] = c
		m.attrs = append(m.attrs, t.Attrs...)
		m.packed = append(m.packed, w)
	}
	out := make([]tuple.Tuple, len(m.packed))
	for i, c := range keys[:len(m.packed)] {
		out[i] = at(c)
	}
	return out, true
}

// radixSort sorts src by score bits, then packed word, stably, into src or
// dst, whichever it returns: one pass a byte, skipping bytes all keys share.
func radixSort(src, dst [][3]uint64) [][3]uint64 {
	for d := range 16 {
		var at [256]int
		for _, k := range src {
			at[byte(k[d/8]>>(d%8*8))]++
		}
		if slices.Contains(at[:], len(src)) {
			continue
		}
		for b, sum := 0, 0; b < len(at); b++ {
			at[b], sum = sum, sum+at[b]
		}
		for _, k := range src {
			b := byte(k[d/8] >> (d % 8 * 8))
			dst[at[b]] = k
			at[b]++
		}
		src, dst = dst, src
	}
	return src
}

// quantize turns the attribute ranges [lo, hi] into base and scale, so that
// pack spreads each attribute over its field's value bits.
func (m *merger) quantize(lo, hi [maxFields]float64) {
	m.guard = 0
	if m.fields == 0 {
		return
	}
	m.bits = 64 / m.fields
	m.base = lo
	levels := float64(uint64(1)<<(m.bits-1) - 1)
	for j := 0; j < m.fields; j++ {
		m.guard |= 1 << (j*m.bits + m.bits - 1)
		// A range that is constant, unbounded, or too narrow for a finite
		// scale gets none, and packs to zero.
		m.scale[j] = levels / (hi[j] - lo[j])
		if !(m.scale[j] > 0) || math.IsInf(m.scale[j], 1) {
			m.scale[j] = 0
		}
	}
}

// pack quantizes a tuple's first attributes into one word, a field each
// with the field's top bit left clear. Every step is monotone, so a <= b on
// every attribute implies the same of every field, and
// (pack(b)|guard)-pack(a) then keeps every guard bit: a one-subtraction
// test that a dominance test can only pass if it passes too.
func (m *merger) pack(attrs []float64) uint64 {
	var p uint64
	for j := 0; j < m.fields; j++ {
		if m.scale[j] != 0 {
			q := uint64((attrs[j] - m.base[j]) * m.scale[j])
			p |= min(q, 1<<(m.bits-1)-1) << (j * m.bits)
		}
	}
	return p
}

// push appends a row for t.
func (m *merger) push(t tuple.Tuple, score float64, id int32) {
	m.attrs = append(m.attrs, t.Attrs...)
	m.attrs = append(m.attrs, make([]float64, m.stride-len(t.Attrs))...)
	m.packed = append(m.packed, m.pack(t.Attrs))
	m.xs = append(m.xs, t.X)
	m.ys = append(m.ys, t.Y)
	m.score = append(m.score, score)
	m.dims = append(m.dims, int32(len(t.Attrs)))
	m.id = append(m.id, id)
}

// blocked reports whether a live row in [from, to) shares t's place or
// dominates it. p is t's packed word.
func (m *merger) blocked(from, to int, t tuple.Tuple, p uint64) bool {
	guard := m.guard
	p |= guard
	xs, packed := m.xs[from:to], m.packed[from:to]
	for i, x := range xs {
		if x != t.X && (p-packed[i])&guard != guard {
			continue
		}
		k := from + i
		if m.dead[m.id[k]] {
			continue
		}
		if x == t.X && m.ys[k] == t.Y {
			return true
		}
		if m.row(k, len(t.Attrs)).Dominates(t) {
			return true
		}
	}
	return false
}

// evicts probes the rows from lo on, the only ones t can dominate, and
// leaves the ids of those it does in m.evict. It reports true instead when
// one of them is a live row at t's place, which drops t.
func (m *merger) evicts(lo int, t tuple.Tuple, p uint64) bool {
	guard := m.guard
	m.evict = m.evict[:0]
	xs, packed := m.xs[lo:], m.packed[lo:]
	for i, x := range xs {
		if x != t.X && ((packed[i]|guard)-p)&guard != guard {
			continue
		}
		k := lo + i
		if m.dead[m.id[k]] {
			continue
		}
		if x == t.X && m.ys[k] == t.Y {
			return true
		}
		if t.Dominates(m.row(k, len(t.Attrs))) {
			m.evict = append(m.evict, m.id[k])
		}
	}
	return false
}

// row returns row k's attributes as a tuple, for the exact dominance test
// against a tuple of the given width: nothing when the widths differ, so
// that neither dominates the other.
func (m *merger) row(k, width int) tuple.Tuple {
	if int(m.dims[k]) != width {
		return tuple.Tuple{}
	}
	return tuple.Tuple{Attrs: m.attrs[k*m.stride : k*m.stride+width]}
}
