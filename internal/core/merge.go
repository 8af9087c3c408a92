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

// MergeAll folds many result sets into one skyline.
func MergeAll(results ...[]tuple.Tuple) []tuple.Tuple {
	var out []tuple.Tuple
	for _, r := range results {
		out = Merge(out, r)
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

	inScore []float64
	evict   []int32
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
	// Score and measure everything first. A NaN score (a NaN attribute, or
	// opposite infinities) orders nothing, and tuples of mixed width share
	// no quantization; either way all scores become one tie and all packed
	// words zero, which tests every pair in full both ways.
	m.order = m.order[:0]
	m.inScore = m.inScore[:0]
	m.stride = len(incoming[0].Attrs)
	m.fields = min(m.stride, maxFields)
	var lo, hi [maxFields]float64 // attribute ranges
	for j := range lo {
		lo[j], hi[j] = math.Inf(1), math.Inf(-1)
	}
	regular := true
	measure := func(t tuple.Tuple) float64 {
		if len(t.Attrs) != m.stride {
			regular = false
			m.stride = max(m.stride, len(t.Attrs))
			return 0
		}
		for j, v := range t.Attrs[:m.fields] {
			lo[j], hi[j] = min(lo[j], v), max(hi[j], v)
		}
		s := scoreOf(t)
		regular = regular && s == s
		return s
	}
	for i, t := range current {
		m.order = append(m.order, scored{measure(t), int32(i)})
	}
	for _, t := range incoming {
		m.inScore = append(m.inScore, measure(t))
	}
	if regular {
		slices.SortFunc(m.order, func(a, b scored) int { return cmp.Compare(a.score, b.score) })
	} else {
		m.fields = 0
		for i := range m.order {
			m.order[i].score = 0
		}
		clear(m.inScore)
	}
	m.quantize(lo, hi)

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
		s, p := m.inScore[i], m.pack(t.Attrs)
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
	for j := len(t.Attrs); j < m.stride; j++ {
		m.attrs = append(m.attrs, 0)
	}
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
