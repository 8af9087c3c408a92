package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"slices"
	"testing"

	"manetskyline/internal/core"
	"manetskyline/internal/tuple"
)

// fuzzTuples decodes a compact byte script into a bag of tuples: the first
// byte picks the dimensionality, the rest become coarse attribute values,
// 31 standing for NaN. Coarse domains and shared bytes force ties and
// duplicates.
func fuzzTuples(raw []byte) []tuple.Tuple {
	if len(raw) == 0 {
		return nil
	}
	dim := 1 + int(raw[0]%4)
	raw = raw[1:]
	var ts []tuple.Tuple
	for len(raw) >= dim && len(ts) < 32 {
		attrs := make([]float64, dim)
		for i := range attrs {
			attrs[i] = float64(raw[i] % 32)
			if attrs[i] == 31 {
				attrs[i] = math.NaN()
			}
		}
		ts = append(ts, tuple.Tuple{
			X: float64(len(ts)), Y: float64(len(ts) % 5), Attrs: attrs,
		})
		raw = raw[dim:]
	}
	return ts
}

// FuzzWireRoundTrip drives the encoders from arbitrary structured inputs:
// every message the system can construct must encode; one carrying a tuple
// with a NaN must fail to decode, and every other must decode and re-encode
// to the identical bytes. This is the complement of the decode-side fuzzers
// below, which start from arbitrary bytes.
func FuzzWireRoundTrip(f *testing.F) {
	f.Add(int32(1), uint8(2), 100.0, 200.0, 250.0, false, 0.0, []byte{}, int32(3))
	f.Add(int32(7), uint8(0), 0.0, 0.0, -1.0, true, 980.5, []byte{2, 1, 2, 3, 4}, int32(0))
	f.Add(int32(-5), uint8(255), 1e18, -1e18, 0.0, true, -3.0, []byte{4, 9, 9, 9, 9, 1, 1, 1, 1}, int32(88))
	f.Add(int32(2), uint8(1), 0.0, 0.0, 10.0, true, 1.0, []byte{1, 31, 2}, int32(4))
	f.Fuzz(func(t *testing.T, org int32, cnt uint8, x, y, d float64,
		hasFilter bool, vdr float64, raw []byte, from int32) {
		ts := fuzzTuples(raw)
		nan := slices.ContainsFunc(ts, tuple.Tuple.HasNaN)
		q := core.Query{
			Org: core.DeviceID(org), Cnt: cnt,
			Pos: tuple.Point{X: x, Y: y}, D: d,
		}
		if hasFilter && len(ts) > 0 {
			q.Filter = &ts[0]
			q.FilterVDR = vdr
			q.Extra = ts[1:]
		}
		enc := EncodeQuery(q)
		dec, err := DecodeQuery(enc)
		if (q.Filter != nil && nan) != (err != nil) {
			t.Fatalf("decode of encoded query, NaN %v: error %v", q.Filter != nil && nan, err)
		}
		if err == nil {
			if re := EncodeQuery(dec); !bytes.Equal(re, enc) {
				t.Fatalf("query round trip not stable:\n in: %x\nout: %x", enc, re)
			}
		}
		r := Result{Key: q.Key(), From: core.DeviceID(from), Tuples: ts}
		encR := EncodeResult(r)
		decR, err := DecodeResult(encR)
		if nan != (err != nil) {
			t.Fatalf("decode of encoded result, NaN %v: error %v", nan, err)
		}
		if err != nil {
			return
		}
		if re := EncodeResult(decR); !bytes.Equal(re, encR) {
			t.Fatalf("result round trip not stable:\n in: %x\nout: %x", encR, re)
		}
		if len(decR.Tuples) != len(ts) {
			t.Fatalf("result round trip changed cardinality: %d vs %d", len(decR.Tuples), len(ts))
		}
	})
}

// FuzzDecodeQuery exercises the decoder with arbitrary bytes: it must never
// panic, and everything it accepts must re-encode to the same bytes
// (canonical form).
func FuzzDecodeQuery(f *testing.F) {
	flt := tuple.Tuple{X: 1, Y: 2, Attrs: []float64{60, 3}}
	f.Add(EncodeQuery(core.Query{Org: 1, Cnt: 2, D: 250}))
	f.Add(EncodeQuery(core.Query{Org: 3, Cnt: 4, Filter: &flt, FilterVDR: 980}))
	f.Add([]byte{})
	f.Add([]byte{byte(KindQuery)})
	f.Fuzz(func(t *testing.T, b []byte) {
		q, err := DecodeQuery(b)
		if err != nil {
			return
		}
		re := EncodeQuery(q)
		if string(re) != string(b) {
			t.Fatalf("accepted non-canonical query encoding:\n in: %x\nout: %x", b, re)
		}
	})
}

// FuzzDecodeReject is the decode-side contract for the gateway's reject
// frame: arbitrary bytes never panic, and every accepted message re-encodes
// to the identical (canonical) bytes. Seeds live in
// testdata/fuzz/FuzzDecodeReject.
func FuzzDecodeReject(f *testing.F) {
	f.Add(EncodeReject(Reject{Key: core.QueryKey{Org: 1, Cnt: 2}, Code: RejectShedRate, RetryAfterMs: 50}))
	f.Add(EncodeReject(Reject{Key: core.QueryKey{Org: -9, Cnt: 255}, Code: RejectUnavailable, RetryAfterMs: 1<<32 - 1}))
	f.Add([]byte{byte(KindReject)})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := DecodeReject(b)
		if err != nil {
			return
		}
		re := EncodeReject(r)
		if string(re) != string(b) {
			t.Fatalf("accepted non-canonical reject encoding:\n in: %x\nout: %x", b, re)
		}
	})
}

// hostileResult is a 14-byte result frame, a header with no tuples that
// claims MaxTuples of them.
func hostileResult() []byte {
	b := make([]byte, 1+4+1+4+4)
	b[0] = byte(KindResult)
	binary.LittleEndian.PutUint32(b[10:], MaxTuples)
	return b
}

// hostileFilterSet is the 41-byte filter-set frame of the same kind.
func hostileFilterSet() []byte {
	b := make([]byte, 1+4+1+1+4+24+2+4)
	b[0] = byte(KindFilterSet)
	binary.LittleEndian.PutUint32(b[37:], MaxTuples)
	return b
}

// TestDecodeClaimedCountAllocatesLittle feeds each decoder a frame whose
// tuple count is far beyond what its bytes could hold: the decode must fail
// before it allocates for the claimed count.
func TestDecodeClaimedCountAllocatesLittle(t *testing.T) {
	for _, tc := range []struct {
		name   string
		frame  []byte
		decode func([]byte) error
	}{
		{"result", hostileResult(), func(b []byte) error { _, err := DecodeResult(b); return err }},
		{"filter-set", hostileFilterSet(), func(b []byte) error { _, err := DecodeFilterSet(b); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := tc.decode(tc.frame)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("%d-byte frame claiming %d tuples decoded", len(tc.frame), MaxTuples)
			}
			if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
				t.Errorf("decode allocated %d bytes before failing (%v)", d, err)
			}
		})
	}
}

// FuzzDecodeResult is the same contract for result messages.
func FuzzDecodeResult(f *testing.F) {
	f.Add(EncodeResult(Result{Key: core.QueryKey{Org: 1, Cnt: 1}}))
	f.Add(EncodeResult(Result{
		Key:    core.QueryKey{Org: 2, Cnt: 9},
		From:   5,
		Tuples: []tuple.Tuple{{X: 1, Y: 2, Attrs: []float64{3, 4}}},
	}))
	f.Add([]byte{byte(KindResult)})
	f.Add(hostileResult())
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := DecodeResult(b)
		if err != nil {
			return
		}
		re := EncodeResult(r)
		if string(re) != string(b) {
			t.Fatalf("accepted non-canonical result encoding:\n in: %x\nout: %x", b, re)
		}
	})
}
