package stats

import (
	"math"
	"testing"
)

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Errorf("Mean(nil) != 0")
	}
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Mean = %v", got)
	}
}

// stdDev is the two-pass population standard deviation (0 for fewer than
// two samples), the batch oracle the Welford tests compare against.
func stdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

func TestStdDev(t *testing.T) {
	if stdDev([]float64{5}) != 0 {
		t.Errorf("single sample should have 0 stddev")
	}
	got := stdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if math.Abs(got-2) > 1e-12 {
		t.Errorf("stdDev = %v, want 2", got)
	}
}

func TestMedian(t *testing.T) {
	if Median(nil) != 0 {
		t.Errorf("Median(nil) != 0")
	}
	if got := Median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd Median = %v, want 3", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even Median = %v, want 2.5", got)
	}
}

func TestWelfordMatchesBatch(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	if w.N() != len(xs) {
		t.Errorf("N = %d, want %d", w.N(), len(xs))
	}
	if math.Abs(w.Mean()-Mean(xs)) > 1e-12 {
		t.Errorf("Mean = %v, want %v", w.Mean(), Mean(xs))
	}
	if math.Abs(w.StdDev()-stdDev(xs)) > 1e-12 {
		t.Errorf("StdDev = %v, want %v", w.StdDev(), stdDev(xs))
	}
}

func TestWelfordEdgeCases(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 || w.N() != 0 {
		t.Errorf("zero value not neutral: %+v", w)
	}
	w.Add(3)
	if w.Mean() != 3 || w.Variance() != 0 {
		t.Errorf("single sample: mean=%v var=%v", w.Mean(), w.Variance())
	}
}

func TestWelfordStability(t *testing.T) {
	// Large offset: the naive sum-of-squares loses all precision here.
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = 1e9 + float64(i%2) // values 1e9 and 1e9+1, variance 0.25
	}
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	if math.Abs(w.Variance()-0.25) > 1e-6 {
		t.Errorf("Variance = %v, want 0.25", w.Variance())
	}
}

func TestWelfordMerge(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9, 1, 12}
	var a, b, all Welford
	for i, x := range xs {
		if i < 3 {
			a.Add(x)
		} else {
			b.Add(x)
		}
		all.Add(x)
	}
	a.Merge(b)
	if a.N() != all.N() {
		t.Fatalf("merged N = %d, want %d", a.N(), all.N())
	}
	if math.Abs(a.Mean()-all.Mean()) > 1e-12 || math.Abs(a.Variance()-all.Variance()) > 1e-12 {
		t.Errorf("merged mean/var = %v/%v, want %v/%v",
			a.Mean(), a.Variance(), all.Mean(), all.Variance())
	}
	// Merging into or from an empty accumulator is the identity.
	var empty Welford
	empty.Merge(a)
	if empty.N() != a.N() || empty.Mean() != a.Mean() {
		t.Errorf("empty.Merge(a) should copy a")
	}
	before := a
	a.Merge(Welford{})
	if a != before {
		t.Errorf("a.Merge(empty) should be a no-op")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 5}, {50, 3}, {25, 2}, {75, 4}, {-5, 1}, {110, 5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Percentile([]float64{1, 2}, 50); got != 1.5 {
		t.Errorf("interpolated median = %v, want 1.5", got)
	}
	if Percentile(nil, 50) != 0 {
		t.Errorf("empty percentile should be 0")
	}
	// Input must not be mutated.
	xs2 := []float64{3, 1, 2}
	Percentile(xs2, 50)
	if xs2[0] != 3 || xs2[1] != 1 || xs2[2] != 2 {
		t.Errorf("Percentile mutated its input: %v", xs2)
	}
}
