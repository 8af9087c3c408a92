// Package wire defines the binary serialization of the distributed skyline
// protocol: queries (with their piggy-backed filtering tuple) and result
// sets of tuples. Real mobile devices exchange bytes, not Go pointers; the
// live peer runtime (internal/tcp) and any future on-the-wire deployment
// speak this format. The simulator uses the same SizeBytes accounting, so
// simulated byte counts equal the true encoded sizes.
//
// Format (all integers little-endian):
//
//	message   := kind:uint8 body
//	query     := org:int32 cnt:uint8 x:float64 y:float64 d:float64
//	             hasFilter:uint8 [tuple vdr:float64]
//	             extraCount:uint16 tuple*          (multi-filter extension)
//	result    := org:int32 cnt:uint8 from:int32 count:uint32 tuple*
//	filterset := org:int32 cnt:uint8 phase:uint8 from:int32
//	             x:float64 y:float64 d:float64 samplek:uint16
//	             count:uint32 tuple*                 (SF; see filterset.go)
//	reject    := org:int32 cnt:uint8 code:uint8
//	             retryafterms:uint32                 (gateway; see reject.go)
//	tuple     := x:float64 y:float64 dim:uint16 attr:float64*
//
// Floats are IEEE-754 bit patterns. The distance d uses math.Inf(1) for
// unconstrained queries and survives the round trip.
//
// On a stream each message travels in a frame (frame.go): a 4-byte header
// word, then an optional trace context, then the message. AppendFrame is
// the one function that lays a frame out. Every writer hands the whole
// frame to its connection in one Write, and a socket reader that reads
// many frames reads through a bufio.Reader of ReadBufferSize, so a frame
// costs one system call each way. Both readers share one header check.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"manetskyline/internal/core"
	"manetskyline/internal/tuple"
)

// Kind tags a message on the wire.
type Kind uint8

// Message kinds.
const (
	KindQuery Kind = iota + 1
	KindResult
	// KindFilterSet carries the SF (sampling-filter) subprotocol — sample
	// requests and replies, the filter-set broadcast, and survivor returns —
	// distinguished by a phase byte (see filterset.go). Peers that predate
	// SF reject it at Peek and drop the frame without dropping the
	// connection.
	KindFilterSet
	// KindReject is the gateway front tier's explicit refusal: the query
	// was shed (rate limit, queue full, deadline) or the backend is
	// unavailable, with a retry-after hint (see reject.go). Pre-gateway
	// peers drop it without dropping the connection.
	KindReject
)

// MaxDim bounds tuple dimensionality on decode, guarding against corrupt
// or hostile input.
const MaxDim = 64

// MaxTuples bounds result cardinality on decode.
const MaxTuples = 1 << 22

// appendTuple encodes one tuple.
func appendTuple(b []byte, t tuple.Tuple) []byte {
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(t.X))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(t.Y))
	b = binary.LittleEndian.AppendUint16(b, uint16(t.Dim()))
	for _, v := range t.Attrs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// tupleSize is the encoded size of one tuple.
func tupleSize(dim int) int { return 8 + 8 + 2 + 8*dim }

// checkTupleCount rejects a message's claimed tuple count before anything
// is allocated for it: above MaxTuples, or more tuples than the rest of the
// message could hold at the smallest tuple encoding. what names the
// message in the error.
func checkTupleCount(what string, count uint32, rest []byte) error {
	if count > MaxTuples {
		return fmt.Errorf("wire: %s claims %d tuples, limit %d", what, count, MaxTuples)
	}
	if int(count) > len(rest)/tupleSize(0) {
		return fmt.Errorf("wire: %s claims %d tuples in %d bytes", what, count, len(rest))
	}
	return nil
}

// decodeTuple decodes one tuple, returning the remaining bytes.
func decodeTuple(b []byte) (tuple.Tuple, []byte, error) {
	if len(b) < 18 {
		return tuple.Tuple{}, nil, fmt.Errorf("wire: truncated tuple header (%d bytes)", len(b))
	}
	var t tuple.Tuple
	t.X = math.Float64frombits(binary.LittleEndian.Uint64(b))
	t.Y = math.Float64frombits(binary.LittleEndian.Uint64(b[8:]))
	dim := int(binary.LittleEndian.Uint16(b[16:]))
	if dim > MaxDim {
		return tuple.Tuple{}, nil, fmt.Errorf("wire: tuple dimensionality %d exceeds limit %d", dim, MaxDim)
	}
	b = b[18:]
	if len(b) < 8*dim {
		return tuple.Tuple{}, nil, fmt.Errorf("wire: truncated tuple body")
	}
	t.Attrs = make([]float64, dim)
	for i := 0; i < dim; i++ {
		t.Attrs[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	if t.HasNaN() {
		return tuple.Tuple{}, nil, fmt.Errorf("wire: tuple with a NaN, which has no order")
	}
	return t, b[8*dim:], nil
}

// MaxExtraFilters bounds the multi-filter set on decode.
const MaxExtraFilters = 256

// EncodeQuery serializes a query message.
func EncodeQuery(q core.Query) []byte {
	size := 1 + 4 + 1 + 24 + 1 + 2
	if q.Filter != nil {
		size += tupleSize(q.Filter.Dim()) + 8
	}
	for _, t := range q.Extra {
		size += tupleSize(t.Dim())
	}
	b := make([]byte, 0, size)
	b = append(b, byte(KindQuery))
	b = binary.LittleEndian.AppendUint32(b, uint32(int32(q.Org)))
	b = append(b, q.Cnt)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(q.Pos.X))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(q.Pos.Y))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(q.D))
	if q.Filter == nil {
		b = append(b, 0)
	} else {
		b = append(b, 1)
		b = appendTuple(b, *q.Filter)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(q.FilterVDR))
	}
	b = binary.LittleEndian.AppendUint16(b, uint16(len(q.Extra)))
	for _, t := range q.Extra {
		b = appendTuple(b, t)
	}
	return b
}

// Result is a decoded result message: one device's reduced local skyline
// for one query.
type Result struct {
	Key    core.QueryKey
	From   core.DeviceID
	Tuples []tuple.Tuple
}

// EncodeResult serializes a result message.
func EncodeResult(r Result) []byte {
	size := 1 + 4 + 1 + 4 + 4
	for _, t := range r.Tuples {
		size += tupleSize(t.Dim())
	}
	b := make([]byte, 0, size)
	b = append(b, byte(KindResult))
	b = binary.LittleEndian.AppendUint32(b, uint32(int32(r.Key.Org)))
	b = append(b, r.Key.Cnt)
	b = binary.LittleEndian.AppendUint32(b, uint32(int32(r.From)))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(r.Tuples)))
	for _, t := range r.Tuples {
		b = appendTuple(b, t)
	}
	return b
}

// Peek returns the message kind without decoding the body.
func Peek(b []byte) (Kind, error) {
	if len(b) == 0 {
		return 0, fmt.Errorf("wire: empty message")
	}
	k := Kind(b[0])
	if k != KindQuery && k != KindResult && k != KindFilterSet && k != KindReject {
		return 0, fmt.Errorf("wire: unknown message kind %d", b[0])
	}
	return k, nil
}

// DecodeQuery parses a query message produced by EncodeQuery.
func DecodeQuery(b []byte) (core.Query, error) {
	var q core.Query
	if len(b) < 1 || Kind(b[0]) != KindQuery {
		return q, fmt.Errorf("wire: not a query message")
	}
	b = b[1:]
	if len(b) < 4+1+24+1 {
		return q, fmt.Errorf("wire: truncated query")
	}
	q.Org = core.DeviceID(int32(binary.LittleEndian.Uint32(b)))
	q.Cnt = b[4]
	q.Pos.X = math.Float64frombits(binary.LittleEndian.Uint64(b[5:]))
	q.Pos.Y = math.Float64frombits(binary.LittleEndian.Uint64(b[13:]))
	q.D = math.Float64frombits(binary.LittleEndian.Uint64(b[21:]))
	hasFilter := b[29]
	b = b[30:]
	switch hasFilter {
	case 0:
	case 1:
		t, rest, err := decodeTuple(b)
		if err != nil {
			return q, err
		}
		if len(rest) < 8 {
			return q, fmt.Errorf("wire: bad filter VDR trailer (%d bytes)", len(rest))
		}
		q.Filter = &t
		q.FilterVDR = math.Float64frombits(binary.LittleEndian.Uint64(rest))
		b = rest[8:]
	default:
		return q, fmt.Errorf("wire: bad filter flag %d", hasFilter)
	}
	if len(b) < 2 {
		return q, fmt.Errorf("wire: truncated extra-filter count")
	}
	extra := int(binary.LittleEndian.Uint16(b))
	b = b[2:]
	if extra > MaxExtraFilters {
		return q, fmt.Errorf("wire: %d extra filters exceeds limit %d", extra, MaxExtraFilters)
	}
	for i := 0; i < extra; i++ {
		t, rest, err := decodeTuple(b)
		if err != nil {
			return q, fmt.Errorf("wire: extra filter %d: %w", i, err)
		}
		q.Extra = append(q.Extra, t)
		b = rest
	}
	if len(b) != 0 {
		return q, fmt.Errorf("wire: %d trailing bytes after query", len(b))
	}
	return q, nil
}

// DecodeResult parses a result message produced by EncodeResult.
func DecodeResult(b []byte) (Result, error) {
	var r Result
	if len(b) < 1 || Kind(b[0]) != KindResult {
		return r, fmt.Errorf("wire: not a result message")
	}
	b = b[1:]
	if len(b) < 4+1+4+4 {
		return r, fmt.Errorf("wire: truncated result header")
	}
	r.Key.Org = core.DeviceID(int32(binary.LittleEndian.Uint32(b)))
	r.Key.Cnt = b[4]
	r.From = core.DeviceID(int32(binary.LittleEndian.Uint32(b[5:])))
	count := binary.LittleEndian.Uint32(b[9:])
	b = b[13:]
	if err := checkTupleCount("result", count, b); err != nil {
		return r, err
	}
	r.Tuples = make([]tuple.Tuple, 0, count)
	for i := uint32(0); i < count; i++ {
		t, rest, err := decodeTuple(b)
		if err != nil {
			return r, fmt.Errorf("wire: tuple %d: %w", i, err)
		}
		r.Tuples = append(r.Tuples, t)
		b = rest
	}
	if len(b) != 0 {
		return r, fmt.Errorf("wire: %d trailing bytes after result", len(b))
	}
	if len(r.Tuples) == 0 {
		r.Tuples = nil
	}
	return r, nil
}
