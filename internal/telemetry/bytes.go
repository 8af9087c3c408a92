package telemetry

import (
	"fmt"
	"sort"
	"strings"
)

// The bytes-on-air ledger: the paper's central cost model is messages and
// bytes over multi-hop routes, so every layer that moves bytes keeps a
// `<layer>_…bytes…_total` counter (radio_bytes_sent_total,
// aodv_control_bytes_sent_total, manet_query_bytes_sent_total,
// tcp_bytes_out_total, …).
// Registry.Bytes rolls whatever byte counters exist into one BytesReport so
// strategies can be scored on bytes, not just latency, without each caller
// knowing the full counter inventory.

// LayerBytes is one layer's sent/received byte totals.
type LayerBytes struct {
	// Sent counts bytes the layer put on the air/wire.
	Sent int64 `json:"sent"`
	// Received counts bytes the layer took off the wire (zero for layers
	// that only account transmissions).
	Received int64 `json:"received,omitempty"`
}

// BytesReport is the per-layer roll-up of every byte counter in a registry.
type BytesReport struct {
	// Layers maps layer name (the counter prefix: "radio", "tcp", …) to
	// its totals.
	Layers map[string]LayerBytes `json:"layers"`
	// OnAir is the total bytes sent across all layers — the paper's cost
	// metric. Received bytes are excluded so a hop is not double-counted.
	OnAir int64 `json:"on_air"`
}

// Bytes builds the ledger from every counter whose name contains "_bytes"
// or ends in "_bytes_total"-style suffixes. Direction is inferred from the
// name: "…_in…"/"…_received…"/"…_recv…" counts as received, everything else
// as sent. Safe on a nil registry (empty report).
func (r *Registry) Bytes() BytesReport {
	rep := BytesReport{Layers: map[string]LayerBytes{}}
	for _, m := range r.collect() {
		if m.kind != "counter" || !strings.Contains(m.name, "_bytes") {
			continue
		}
		layer := m.name
		if i := strings.IndexByte(m.name, '_'); i > 0 {
			layer = m.name[:i]
		}
		lb := rep.Layers[layer]
		if strings.Contains(m.name, "_in_") || strings.HasSuffix(m.name, "_in") ||
			strings.Contains(m.name, "_received") || strings.Contains(m.name, "_recv") {
			lb.Received += m.value
		} else {
			lb.Sent += m.value
			rep.OnAir += m.value
		}
		rep.Layers[layer] = lb
	}
	return rep
}

// String renders the report as one deterministic human-readable line, e.g.
//
//	bytes on air: 12345 (radio 10000, tcp 2345)
func (b BytesReport) String() string {
	names := make([]string, 0, len(b.Layers))
	for name := range b.Layers {
		if b.Layers[name].Sent > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var sb strings.Builder
	fmt.Fprintf(&sb, "bytes on air: %d", b.OnAir)
	if len(names) > 0 {
		sb.WriteString(" (")
		for i, name := range names {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "%s %d", name, b.Layers[name].Sent)
		}
		sb.WriteString(")")
	}
	return sb.String()
}
