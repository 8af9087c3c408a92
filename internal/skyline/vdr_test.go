package skyline

import (
	"math/rand"
	"testing"
	"testing/quick"

	"manetskyline/internal/tuple"
)

func TestVDRPaperExample(t *testing.T) {
	// §3.2: bounds (200, 10); VDR(h21)=980, VDR(h22)=880, VDR(h23)=720.
	hi := []float64{200, 10}
	cases := []struct {
		tpl  tuple.Tuple
		want float64
	}{
		{tp(0, 0, 60, 3), 980},
		{tp(0, 0, 90, 2), 880},
		{tp(0, 0, 120, 1), 720},
	}
	for _, c := range cases {
		if got := VDR(c.tpl, hi); got != c.want {
			t.Errorf("VDR(%v) = %v, want %v", c.tpl, got, c.want)
		}
	}
}

func TestVDRClampsAtZero(t *testing.T) {
	if got := VDR(tp(0, 0, 300, 5), []float64{200, 10}); got != 0 {
		t.Errorf("tuple above bound should have zero VDR, got %v", got)
	}
	if got := VDR(tp(0, 0, 200, 5), []float64{200, 10}); got != 0 {
		t.Errorf("tuple at bound should have zero VDR, got %v", got)
	}
}

// VDR is monotone: a tuple that dominates another has at least as large a
// dominating region under any common bounds.
func TestQuickVDRMonotone(t *testing.T) {
	f := func(av, bv [3]uint8, hi [3]uint8) bool {
		a := tuple.Tuple{Attrs: []float64{float64(av[0]), float64(av[1]), float64(av[2])}}
		b := tuple.Tuple{Attrs: []float64{float64(bv[0]), float64(bv[1]), float64(bv[2])}}
		bounds := []float64{float64(hi[0]) + 256, float64(hi[1]) + 256, float64(hi[2]) + 256}
		if !a.Dominates(b) {
			return true
		}
		return VDR(a, bounds) >= VDR(b, bounds)
	}
	cfg := &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(8))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
