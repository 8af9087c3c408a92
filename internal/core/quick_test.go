package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"manetskyline/internal/skyline"
	"manetskyline/internal/tuple"
)

// tupleSet is a quick-generatable bag of small-domain tuples. Coarse
// domains force ties, duplicates, and dominations — the hard cases.
type tupleSet []tuple.Tuple

// Generate implements quick.Generator.
func (tupleSet) Generate(r *rand.Rand, size int) reflect.Value {
	n := r.Intn(size*4 + 1)
	dim := 1 + r.Intn(3)
	ts := make(tupleSet, n)
	for i := range ts {
		attrs := make([]float64, dim)
		for j := range attrs {
			attrs[j] = float64(r.Intn(8))
		}
		ts[i] = tuple.Tuple{
			X:     float64(r.Intn(30)),
			Y:     float64(r.Intn(30)),
			Attrs: attrs,
		}
	}
	return reflect.ValueOf(ts)
}

// sameDim keeps only tuples matching the first tuple's dimensionality and
// deduplicates sites (the system's standing assumption: one site, one
// attribute vector).
func (ts tupleSet) normalize() []tuple.Tuple {
	if len(ts) == 0 {
		return nil
	}
	dim := ts[0].Dim()
	seen := map[[2]float64]bool{}
	var out []tuple.Tuple
	for _, t := range ts {
		if t.Dim() != dim {
			continue
		}
		k := [2]float64{t.X, t.Y}
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, t)
	}
	return out
}

// Merging the skylines of any two partitions must equal the skyline of the
// union — the §3.1 correctness basis, under arbitrary inputs.
func TestQuickMergeEqualsUnionSkyline(t *testing.T) {
	f := func(raw tupleSet, cut uint8) bool {
		ts := raw.normalize()
		if len(ts) == 0 {
			return true
		}
		c := int(cut) % (len(ts) + 1)
		a, b := ts[:c], ts[c:]
		merged := Merge(skyline.SFS(a), skyline.SFS(b))
		return skyline.SetEqual(merged, skyline.SFS(ts))
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(5))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Merge must be idempotent and produce a mutually non-dominated,
// site-unique result.
func TestQuickMergeResultIsSkyline(t *testing.T) {
	f := func(raw tupleSet) bool {
		ts := raw.normalize()
		out := Merge(nil, skyline.SFS(ts))
		for i, a := range out {
			for j, b := range out {
				if i == j {
					continue
				}
				if a.Dominates(b) || a.SamePlace(b) {
					return false
				}
			}
		}
		again := Merge(out, out)
		return skyline.SetEqual(again, out)
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(6))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Pruning any skyline with any filter drawn from the same global relation
// must never change the merged final result — §3.2/§3.3 safety under
// arbitrary inputs.
func TestQuickFilterSafety(t *testing.T) {
	f := func(raw tupleSet, cut, pick uint8) bool {
		ts := raw.normalize()
		if len(ts) < 2 {
			return true
		}
		c := 1 + int(cut)%(len(ts)-1)
		a, b := ts[:c], ts[c:]
		skyA, skyB := skyline.SFS(a), skyline.SFS(b)
		// Filter: any tuple of skyA (as the originator would pick).
		flt := skyA[int(pick)%len(skyA)]
		pruned := ApplyFilters(append([]tuple.Tuple(nil), skyB...), []tuple.Tuple{flt})
		merged := Merge(skyA, pruned)
		return skyline.SetEqual(merged, skyline.SFS(ts))
	}
	cfg := &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// The query log accepts each (org, cnt) exactly once when every copy of a
// query arrives before its originator's next query; out-of-order arrivals
// are TestQueryLog's and the flood tests' concern.
func TestQuickQueryLogExactlyOnce(t *testing.T) {
	f := func(orgs []uint8) bool {
		l := NewQueryLog()
		type key = QueryKey
		accepted := map[key]int{}
		cnt := map[DeviceID]uint8{}
		for _, o := range orgs {
			org := DeviceID(o % 8)
			cnt[org]++
			k := key{Org: org, Cnt: cnt[org]}
			for i := 0; i < 3; i++ { // duplicate deliveries
				if l.FirstTime(k) {
					accepted[k]++
				}
			}
		}
		for _, n := range accepted {
			if n != 1 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(9))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Static execution must agree with the centralized constrained skyline for
// arbitrary (small) random relations, all modes, both strategies.
func TestQuickStaticEqualsCentralized(t *testing.T) {
	f := func(raw tupleSet, mode uint8, dynamic bool) bool {
		ts := raw.normalize()
		if len(ts) == 0 {
			return true
		}
		dim := ts[0].Dim()
		schema := tuple.NewSchema(dim, 0, 8)
		// Spread across a 2×2 grid by site position scaled to [0,1000).
		g := 2
		parts := make([][]tuple.Tuple, g*g)
		for _, tp := range ts {
			col := int(tp.X) * g / 30
			row := int(tp.Y) * g / 30
			if col >= g {
				col = g - 1
			}
			if row >= g {
				row = g - 1
			}
			parts[row*g+col] = append(parts[row*g+col], tp)
		}
		devs := make([]*Device, g*g)
		for i, p := range parts {
			devs[i] = NewDevice(DeviceID(i), p, schema, Estimation(mode%3), dynamic)
		}
		out := RunStatic(devs, g, 0)
		return skyline.SetEqual(out.Skyline, skyline.SFS(ts))
	}
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(10))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// DRR is bounded: it can never exceed 1, and equals at most
// (unreduced - devices)/unreduced.
func TestQuickDRRBounds(t *testing.T) {
	f := func(red, unred, dev uint16) bool {
		acc := DRRAccumulator{
			Reduced:   int(red % 500),
			Unreduced: int(unred % 500),
			Devices:   int(dev % 50),
		}
		if acc.Reduced > acc.Unreduced {
			acc.Reduced = acc.Unreduced // reduction can't add tuples
		}
		d := acc.DRR()
		return d <= 1 && !math.IsNaN(d) && !math.IsInf(d, 0)
	}
	cfg := &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
