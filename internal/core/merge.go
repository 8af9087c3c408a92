package core

import (
	"cmp"
	"math"
	"slices"
	"sync"

	"manetskyline/internal/tuple"
)

// Merge performs the assembly step of §4.3 at the query originator (and, in
// depth-first forwarding, at every device on the return path): it folds one
// incoming reduced local skyline SK'_i into the current partial result. It is
// MergeAll(current, incoming), except that an empty incoming returns current
// itself. Neither input is written.
func Merge(current, incoming []tuple.Tuple) []tuple.Tuple {
	if len(incoming) == 0 {
		return current
	}
	return MergeAll(current, incoming)
}

// MergeAll assembles partial results into the skyline of their union. Both
// tasks of §4.3 happen here: duplicate elimination — a tuple received from
// overlapping local relations is kept once — and removal of every tuple
// another one dominates. Duplicates are exact copies; two different vectors
// at one place are two tuples, as in skyline.BNL.
//
// One sort-filter pass does the work (DESIGN §8): the union is sorted by a
// key no dominator can follow its victim in, then each tuple is probed
// against the ones accepted before it. The result is fresh and ascends by
// that key; no input is written.
func MergeAll(results ...[]tuple.Tuple) []tuple.Tuple {
	m := mergePool.Get().(*merger)
	out := m.mergeAll(results)
	mergePool.Put(m)
	return out
}

// merger is MergeAll's working memory, recycled so that a steady stream of
// merges allocates only its results.
type merger struct {
	keys [][3]uint64 // packed word, score bits, source<<32 | position

	// The accepted rows, each filed under the cell of its packed word.
	stride int
	cells  [1 << (2 * cellBits)]cell

	// Quantization of the first fields attributes into bits-wide fields of
	// one word: attribute j maps to (v-base[j])*scale[j], and guard holds
	// the top bit of every field. Irregular inputs have no fields; see pack.
	fields, bits int
	base, scale  [maxFields]float64
	guard        uint64
}

// cell holds one cell's accepted rows in acceptance order: row k's
// attributes at [k*stride, (k+1)*stride), zero-padded, and its packed word.
type cell struct {
	attrs  []float64
	packed []uint64
}

// cellBits top value bits of the first two packed fields make a row's cell.
const cellBits = 3

// maxFields bounds how many attributes pack quantizes: past eight the
// fields get too coarse to reject much.
const maxFields = 8

// radixMin is the smallest key set mergeAll radix-sorts. The radix sort's
// sixteen 256-bucket passes are a fixed cost that a comparison sort of a
// few dozen keys, the size of one reply, does not pay.
const radixMin = 256

var mergePool = sync.Pool{New: func() any { return new(merger) }}

// scoreOf is the monotone sort key: t dominates u only if
// scoreOf(t) <= scoreOf(u).
func scoreOf(t tuple.Tuple) float64 {
	s := 0.0
	for _, v := range t.Attrs {
		s += v
	}
	return s
}

// measure quantizes results for pack and reports whether every sum is a
// number. A NaN attribute or opposite infinities make a NaN sum, which
// orders nothing; mixed widths share no quantization. Either leaves the
// inputs irregular, with no fields.
func (m *merger) measure(results [][]tuple.Tuple) bool {
	var lo, hi [maxFields]float64
	for j := range lo {
		lo[j], hi[j] = math.Inf(1), math.Inf(-1)
	}
	width, mixed, sums := -1, false, true
	for _, ts := range results {
		for _, t := range ts {
			s := scoreOf(t)
			sums = sums && s == s
			mixed = mixed || (width >= 0 && len(t.Attrs) != width)
			width = max(width, len(t.Attrs))
			for j, v := range t.Attrs[:min(len(t.Attrs), maxFields)] {
				lo[j], hi[j] = min(lo[j], v), max(hi[j], v)
			}
		}
	}
	m.stride, m.fields = max(width, 0), 0
	if sums && !mixed {
		m.fields = min(m.stride, maxFields)
	}
	m.quantize(lo, hi)
	return sums
}

// mergeAll is MergeAll's pass: measure, sort the keys, scan once.
func (m *merger) mergeAll(results [][]tuple.Tuple) []tuple.Tuple {
	sums := m.measure(results)
	m.keys = m.keys[:0]
	for r, ts := range results {
		for i, t := range ts {
			// Without sums every key scores alike and the tie order below
			// decides. Bits that sort as the score does: sums start at +0,
			// never reach -0.
			s := uint64(0)
			if sums {
				s = math.Float64bits(scoreOf(t))
				s ^= uint64(int64(s)>>63) | 1<<63
			}
			m.keys = append(m.keys, [3]uint64{m.pack(t.Attrs), s, uint64(r)<<32 | uint64(i)})
		}
	}
	keys := m.keys
	if n := len(keys); n < radixMin {
		slices.SortFunc(keys, func(a, b [3]uint64) int {
			return cmp.Or(cmp.Compare(a[1], b[1]), cmp.Compare(a[0], b[0]), cmp.Compare(a[2], b[2]))
		})
	} else {
		m.keys = slices.Grow(m.keys, n)[:2*n]
		keys = radixSort(m.keys[:n], m.keys[n:])
	}
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
	for i := range m.cells {
		m.cells[i].attrs, m.cells[i].packed = m.cells[i].attrs[:0], m.cells[i].packed[:0]
	}
	n := 0
	for k, c := range keys {
		t, w := at(c), c[0]
		// A dominated tuple drops, and so does a copy, which follows its
		// survivor in key order.
		if m.dominated(t, w) || k > 0 && at(keys[k-1]).Equal(t) {
			continue
		}
		// Survivors gather at the front of keys, in slot k or one passed.
		keys[n] = c
		a, b := m.cellOf(w)
		cl := &m.cells[a<<cellBits|b]
		cl.attrs = append(cl.attrs, t.Attrs...)
		cl.attrs = append(cl.attrs, make([]float64, m.stride-len(t.Attrs))...)
		cl.packed = append(cl.packed, w)
		n++
	}
	out := make([]tuple.Tuple, n)
	for i, c := range keys[:n] {
		out[i] = at(c)
	}
	return out
}

// cellOf is the cell of a packed word: the top cellBits value bits of its
// first two fields, or (0, 0) below two fields. Every step of pack is
// monotone, so a row that dominates t has neither coordinate above t's.
func (m *merger) cellOf(w uint64) (a, b int) {
	if m.fields < 2 {
		return 0, 0
	}
	s, mask := uint(m.bits-1-cellBits), uint64(1<<cellBits-1)
	return int(w >> s & mask), int(w >> (s + uint(m.bits)) & mask)
}

// dominated reports whether an accepted row dominates t, whose packed word
// is w, visiting only the cells that can hold a dominator: from t's own
// cell down to (0, 0), nearest first, where dominators are likeliest.
func (m *merger) dominated(t tuple.Tuple, w uint64) bool {
	a, b := m.cellOf(w)
	for i := a; i >= 0; i-- {
		for j := b; j >= 0; j-- {
			if c := &m.cells[i<<cellBits|j]; len(c.packed) > 0 && c.dominates(m.stride, m.guard, t, w) {
				return true
			}
		}
	}
	return false
}

// dominates reports whether a row of c dominates t, whose packed word is w:
// the guarded word first, then the exact test. It is kept small and apart
// so that its loop's few live values stay in registers (ROADMAP 4(c)).
func (c *cell) dominates(stride int, guard uint64, t tuple.Tuple, w uint64) bool {
	width := len(t.Attrs)
	for k, q := range c.packed {
		if (w|guard-q)&guard == guard && (tuple.Tuple{Attrs: c.attrs[k*stride : k*stride+width]}).Dominates(t) {
			return true
		}
	}
	return false
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
	if m.fields == 0 {
		m.guard = 1<<31 | 1<<63 // pack's two width fields
		return
	}
	m.bits, m.guard = 64/m.fields, 0
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
//
// Irregular inputs pack their width instead, into two 32-bit fields: the
// width and what it lacks of the widest. One word is at most the other in
// both fields only at equal widths, so the same test then admits exactly
// the rows of t's width, the only ones that can dominate t, and a row needs
// no width of its own.
func (m *merger) pack(attrs []float64) uint64 {
	if m.fields == 0 {
		return uint64(len(attrs)) | uint64(m.stride-len(attrs))<<32
	}
	var p uint64
	for j := 0; j < m.fields; j++ {
		if m.scale[j] != 0 {
			q := uint64((attrs[j] - m.base[j]) * m.scale[j])
			p |= min(q, 1<<(m.bits-1)-1) << (j * m.bits)
		}
	}
	return p
}
