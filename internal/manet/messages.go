package manet

import "manetskyline/internal/core"

// tupleBytes is the wire size of one tuple: two float64 coordinates plus
// one float64 per attribute (the paper's devices would ship narrower types;
// the constant factor only scales transfer delays uniformly).
func tupleBytes(dim int) int { return 16 + 8*dim }

// querySize is the wire size of a query specification: id, cnt, position,
// and distance, plus every filtering tuple it carries.
func querySize(q core.Query) int {
	s := 24
	if q.Filter != nil {
		s += tupleBytes(q.Filter.Dim()) + 8 // tuple + carried VDR score
	}
	for _, t := range q.Extra {
		s += tupleBytes(t.Dim())
	}
	return s
}

// floodMsg carries one protocol message (core.Msg) over the radio.
// SizeBytes is the paper's byte accounting; the bookkeeping fields (Hops,
// Acc) are not payload and never sized, so airtime, timing and goldens are
// unchanged by instrumentation.
type floodMsg struct {
	core.Msg
}

func (m *floodMsg) SizeBytes() int {
	dim := 0
	if len(m.Tuples) > 0 {
		dim = m.Tuples[0].Dim()
	}
	switch m.Kind {
	case core.MsgQuery, core.MsgHandoff:
		// The flood or hand-off carries the query with its filter and VDR
		// score.
		return querySize(m.Q)
	case core.MsgAck:
		return 8
	case core.MsgSubtree:
		// Key and tuples, plus the subtree's adopted filter and its VDR
		// score when it has one.
		return querySize(m.Q) + len(m.Tuples)*tupleBytes(dim)
	case core.MsgSampleReq:
		// The sampling round's bare query plus sample budget and TTL.
		return querySize(m.Q) + 3
	case core.MsgFilters:
		// The collect phase's bare query plus the filter set. Filters
		// prune by dominance only, so they travel as 16-bit fixed-point
		// attribute codes (core.QuantizeFilters): 2·dim bytes each instead
		// of tupleBytes(dim). That keeps SF's flood below BF's
		// query+filter+VDR scale on a flood-dominated dense network.
		return querySize(m.Q) + 2 + len(m.Tuples)*2*dim
	default:
		// Results, samples and survivors: key, sender and tuples.
		return 16 + len(m.Tuples)*tupleBytes(dim)
	}
}
