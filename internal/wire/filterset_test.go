package wire

import (
	"bytes"
	"math"
	"reflect"
	"slices"
	"testing"

	"manetskyline/internal/core"
	"manetskyline/internal/tuple"
)

func TestFilterSetRoundTrip(t *testing.T) {
	cases := []FilterSet{
		{Key: core.QueryKey{Org: 1, Cnt: 2}, Phase: SFPhaseSampleRequest,
			Pos: tuple.Point{X: 100, Y: 200}, D: 250, SampleK: 2},
		{Key: core.QueryKey{Org: 9, Cnt: 0}, Phase: SFPhaseSampleReply, From: 7,
			Tuples: []tuple.Tuple{tp(1, 2, 60, 3), tp(4, 5, 70, 4)}},
		{Key: core.QueryKey{Org: -3, Cnt: 255}, Phase: SFPhaseFilterSet,
			Pos: tuple.Point{X: -1, Y: 1e9}, D: math.Inf(1),
			Tuples: []tuple.Tuple{tp(0, 0, 12, 1)}},
		{Key: core.QueryKey{Org: 42, Cnt: 17}, Phase: SFPhaseSurvivors, From: 88},
	}
	for i, m := range cases {
		b := EncodeFilterSet(m)
		if k, err := Peek(b); err != nil || k != KindFilterSet {
			t.Fatalf("case %d: Peek = %v, %v", i, k, err)
		}
		got, err := DecodeFilterSet(b)
		if err != nil {
			t.Fatalf("case %d: DecodeFilterSet: %v", i, err)
		}
		// Inf survives, so DeepEqual works for these finite-or-Inf cases.
		if !reflect.DeepEqual(m, got) {
			t.Errorf("case %d: round trip mismatch:\n%+v\n%+v", i, m, got)
		}
	}
}

func TestFilterSetRejectsCorruption(t *testing.T) {
	good := EncodeFilterSet(FilterSet{
		Key: core.QueryKey{Org: 1, Cnt: 2}, Phase: SFPhaseFilterSet,
		D:      300,
		Tuples: []tuple.Tuple{tp(1, 2, 3, 4)},
	})
	for n := 0; n < len(good); n++ {
		if _, err := DecodeFilterSet(good[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded", n)
		}
	}
	if _, err := DecodeFilterSet(append(append([]byte{}, good...), 0xFF)); err == nil {
		t.Errorf("trailing garbage should be rejected")
	}

	// An out-of-range phase byte must be rejected.
	bad := append([]byte{}, good...)
	bad[6] = sfPhaseMax + 1
	if _, err := DecodeFilterSet(bad); err == nil {
		t.Errorf("unknown phase should be rejected")
	}

	// A hostile tuple count must be rejected before allocation.
	h := EncodeFilterSet(FilterSet{Key: core.QueryKey{Org: 1, Cnt: 1}})
	copy(h[len(h)-4:], []byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := DecodeFilterSet(h); err == nil {
		t.Errorf("hostile tuple count should be rejected")
	}

	// Cross-kind confusion must fail cleanly in both directions.
	if _, err := DecodeFilterSet(EncodeQuery(core.Query{Org: 1, Cnt: 1, D: 100})); err == nil {
		t.Errorf("query bytes must not decode as filter set")
	}
	if _, err := DecodeQuery(good); err == nil {
		t.Errorf("filter-set bytes must not decode as query")
	}
	if _, err := DecodeResult(good); err == nil {
		t.Errorf("filter-set bytes must not decode as result")
	}
}

// FuzzWireFilterSetRoundTrip drives EncodeFilterSet from arbitrary structured
// inputs: every message SF can construct must encode; one carrying a tuple
// with a NaN must fail to decode, and every other must decode and re-encode
// to the identical bytes. Seeds covering all four phases are checked in
// under testdata/fuzz.
func FuzzWireFilterSetRoundTrip(f *testing.F) {
	f.Add(int32(1), uint8(2), uint8(0), int32(0), 100.0, 200.0, 250.0, uint16(2), []byte{})
	f.Add(int32(7), uint8(0), uint8(1), int32(9), 0.0, 0.0, -1.0, uint16(0), []byte{2, 1, 2, 3, 4})
	f.Add(int32(-5), uint8(255), uint8(2), int32(3), 1e18, -1e18, 0.0, uint16(8), []byte{4, 9, 9, 9, 9, 1, 1, 1, 1})
	f.Add(int32(42), uint8(17), uint8(3), int32(88), -3.5, 2.5, 600.0, uint16(1), []byte{1, 30, 31})
	f.Fuzz(func(t *testing.T, org int32, cnt, phase uint8, from int32,
		x, y, d float64, samplek uint16, raw []byte) {
		m := FilterSet{
			Key:     core.QueryKey{Org: core.DeviceID(org), Cnt: cnt},
			Phase:   phase % (sfPhaseMax + 1),
			From:    core.DeviceID(from),
			Pos:     tuple.Point{X: x, Y: y},
			D:       d,
			SampleK: samplek,
			Tuples:  fuzzTuples(raw),
		}
		enc := EncodeFilterSet(m)
		dec, err := DecodeFilterSet(enc)
		if nan := slices.ContainsFunc(m.Tuples, tuple.Tuple.HasNaN); nan != (err != nil) {
			t.Fatalf("decode of encoded filter set, NaN %v: error %v", nan, err)
		}
		if err != nil {
			return
		}
		if re := EncodeFilterSet(dec); !bytes.Equal(re, enc) {
			t.Fatalf("filter-set round trip not stable:\n in: %x\nout: %x", enc, re)
		}
		if len(dec.Tuples) != len(m.Tuples) {
			t.Fatalf("round trip changed cardinality: %d vs %d", len(dec.Tuples), len(m.Tuples))
		}
	})
}

// FuzzDecodeFilterSet is the decode-side contract: arbitrary bytes must never
// panic, and everything accepted must re-encode canonically.
func FuzzDecodeFilterSet(f *testing.F) {
	f.Add(EncodeFilterSet(FilterSet{Key: core.QueryKey{Org: 1, Cnt: 1}, Phase: SFPhaseSampleRequest, D: 250}))
	f.Add(EncodeFilterSet(FilterSet{
		Key: core.QueryKey{Org: 2, Cnt: 9}, Phase: SFPhaseSurvivors, From: 5,
		Tuples: []tuple.Tuple{{X: 1, Y: 2, Attrs: []float64{3, 4}}},
	}))
	f.Add([]byte{byte(KindFilterSet)})
	f.Add(hostileFilterSet())
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := DecodeFilterSet(b)
		if err != nil {
			return
		}
		re := EncodeFilterSet(m)
		if string(re) != string(b) {
			t.Fatalf("accepted non-canonical filter-set encoding:\n in: %x\nout: %x", b, re)
		}
	})
}
