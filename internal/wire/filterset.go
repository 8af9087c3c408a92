package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"manetskyline/internal/core"
	"manetskyline/internal/tuple"
)

// The SF (sampling-filter) strategy adds one message kind covering its whole
// subprotocol, distinguished by a phase byte:
//
//	filterset := kind:uint8 org:int32 cnt:uint8 phase:uint8 from:int32
//	             x:float64 y:float64 d:float64 samplek:uint16
//	             count:uint32 tuple*
//
// Phase semantics (unused fields are zero and ignored):
//
//	0 sample-request: originator → peers; x/y/d carry the query predicate
//	                  and samplek the per-peer sample budget.
//	1 sample-reply:   peer → originator; from identifies the peer, tuples
//	                  carry its seeded local-skyline sample.
//	2 filter-set:     originator → peers; x/y/d carry the predicate again
//	                  (a peer that missed phase 0 answers from this message
//	                  alone), tuples carry the selected filter set.
//	3 survivors:      peer → originator; tuples carry the peer's local
//	                  skyline pruned by the filter set.
//
// Peers that predate SF reject the unknown kind at Peek and drop the frame
// without disturbing the connection — the mixed-version story is
// reject-don't-crash, verified in internal/tcp.

// SF subprotocol phases carried by FilterSet.Phase.
const (
	SFPhaseSampleRequest uint8 = iota
	SFPhaseSampleReply
	SFPhaseFilterSet
	SFPhaseSurvivors

	sfPhaseMax = SFPhaseSurvivors
)

// FilterSet is a decoded SF subprotocol message.
type FilterSet struct {
	Key   core.QueryKey
	Phase uint8
	// From identifies the replying peer in phases 1 and 3.
	From core.DeviceID
	// Pos and D are the query predicate (phases 0 and 2).
	Pos tuple.Point
	D   float64
	// SampleK is the per-peer sample budget (phase 0).
	SampleK uint16
	// Tuples is the phase's payload: sample, filter set, or survivors.
	Tuples []tuple.Tuple
}

// EncodeFilterSet serializes an SF subprotocol message.
func EncodeFilterSet(m FilterSet) []byte {
	size := 1 + 4 + 1 + 1 + 4 + 24 + 2 + 4
	for _, t := range m.Tuples {
		size += tupleSize(t.Dim())
	}
	b := make([]byte, 0, size)
	b = append(b, byte(KindFilterSet))
	b = binary.LittleEndian.AppendUint32(b, uint32(int32(m.Key.Org)))
	b = append(b, m.Key.Cnt)
	b = append(b, m.Phase)
	b = binary.LittleEndian.AppendUint32(b, uint32(int32(m.From)))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(m.Pos.X))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(m.Pos.Y))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(m.D))
	b = binary.LittleEndian.AppendUint16(b, m.SampleK)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(m.Tuples)))
	for _, t := range m.Tuples {
		b = appendTuple(b, t)
	}
	return b
}

// DecodeFilterSet parses a message produced by EncodeFilterSet.
func DecodeFilterSet(b []byte) (FilterSet, error) {
	var m FilterSet
	if len(b) < 1 || Kind(b[0]) != KindFilterSet {
		return m, fmt.Errorf("wire: not a filter-set message")
	}
	b = b[1:]
	if len(b) < 4+1+1+4+24+2+4 {
		return m, fmt.Errorf("wire: truncated filter-set header (%d bytes)", len(b))
	}
	m.Key.Org = core.DeviceID(int32(binary.LittleEndian.Uint32(b)))
	m.Key.Cnt = b[4]
	m.Phase = b[5]
	if m.Phase > sfPhaseMax {
		return FilterSet{}, fmt.Errorf("wire: unknown SF phase %d", m.Phase)
	}
	m.From = core.DeviceID(int32(binary.LittleEndian.Uint32(b[6:])))
	m.Pos.X = math.Float64frombits(binary.LittleEndian.Uint64(b[10:]))
	m.Pos.Y = math.Float64frombits(binary.LittleEndian.Uint64(b[18:]))
	m.D = math.Float64frombits(binary.LittleEndian.Uint64(b[26:]))
	m.SampleK = binary.LittleEndian.Uint16(b[34:])
	count := binary.LittleEndian.Uint32(b[36:])
	b = b[40:]
	if err := checkTupleCount("filter set", count, b); err != nil {
		return FilterSet{}, err
	}
	m.Tuples = make([]tuple.Tuple, 0, count)
	for i := uint32(0); i < count; i++ {
		t, rest, err := decodeTuple(b)
		if err != nil {
			return FilterSet{}, fmt.Errorf("wire: filter-set tuple %d: %w", i, err)
		}
		m.Tuples = append(m.Tuples, t)
		b = rest
	}
	if len(b) != 0 {
		return FilterSet{}, fmt.Errorf("wire: %d trailing bytes after filter set", len(b))
	}
	if len(m.Tuples) == 0 {
		m.Tuples = nil
	}
	return m, nil
}
