package device

import (
	"testing"

	"manetskyline/internal/localsky"
)

func TestValidate(t *testing.T) {
	for _, m := range []CostModel{Handheld200MHz(), Desktop(), {}} {
		if err := m.Validate(); err != nil {
			t.Errorf("model %+v should validate: %v", m, err)
		}
	}
	bad := CostModel{PerIDCmp: -1}
	if bad.Validate() == nil {
		t.Errorf("negative cost should fail validation")
	}
}

// TestValidateNamesFirstNegative makes two costs negative: the error must
// name the first in declaration order every time, not one of them at random.
func TestValidateNamesFirstNegative(t *testing.T) {
	bad := CostModel{PerTuple: -1, PerDist: -2}
	for range 20 {
		if err := bad.Validate(); err == nil || err.Error() != "device: negative cost PerTuple = -1" {
			t.Fatalf("Validate = %v, want the PerTuple error", err)
		}
	}
}

func TestTimeComposition(t *testing.T) {
	m := CostModel{Fixed: 1, PerTuple: 2, PerIDCmp: 3, PerValCmp: 5, PerDist: 7}
	s := localsky.Stats{Scanned: 1, IDCmp: 1, ValCmp: 1, DistChecks: 1}
	if got := m.Time(s); got != 1+2+3+5+7 {
		t.Errorf("Time = %v, want 18", got)
	}
	if got := m.Time(localsky.Stats{}); got != 1 {
		t.Errorf("empty stats should cost only Fixed: %v", got)
	}
}

func TestHandheldSlowerThanDesktop(t *testing.T) {
	s := localsky.Stats{Scanned: 10000, IDCmp: 50000, ValCmp: 50000, DistChecks: 10000}
	hh, dt := Handheld200MHz().Time(s), Desktop().Time(s)
	if hh <= dt {
		t.Errorf("handheld (%v) should be slower than desktop (%v)", hh, dt)
	}
	// Roughly two to three orders of magnitude, as between an interpreted
	// 200 MHz device and a compiled 3 GHz desktop.
	if hh/dt < 50 {
		t.Errorf("handheld/desktop ratio %v implausibly small", hh/dt)
	}
}

func TestIDCheaperThanValue(t *testing.T) {
	m := Handheld200MHz()
	id := m.Time(localsky.Stats{IDCmp: 1000000})
	val := m.Time(localsky.Stats{ValCmp: 1000000})
	if id >= val {
		t.Errorf("ID comparisons (%v) must be cheaper than value comparisons (%v) — the §4.2 premise", id, val)
	}
}
