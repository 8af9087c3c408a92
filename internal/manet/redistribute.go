package manet

import (
	"manetskyline/internal/storage"
)

// This file implements the paper's second future-work direction (§7):
// "extend the current strategies to retain good performance while
// incorporating the redistribution of local relations due to device
// mobility."
//
// The scheme is deliberately simple: every RedistributePeriod seconds, each
// device that still holds data compares its own distance to the centre of
// its data's bounding rectangle with every other device's distance. When
// some other device is both markedly closer to the data's region (less than
// half this device's distance) and currently within radio range, the
// relation is handed over in one bulk transfer. The hand-off is applied
// atomically in simulation state — the union of all local relations is
// invariant — while the transfer itself is charged to the radio medium at
// its true byte size, so bandwidth and message accounting see it.

// xferMsg is the bulk relation hand-off frame (accounting only; the state
// change is applied atomically by the scheduler).
type xferMsg struct {
	count, dim int
}

func (m *xferMsg) SizeBytes() int { return 16 + m.count*tupleBytes(m.dim) }

// Transfers counts completed hand-offs (exposed through Outcome).
type redistributionState struct {
	transfers int
}

// scheduleRedistribution arms the periodic hand-off check.
func (sc *scenario) scheduleRedistribution() {
	period := sc.p.RedistributePeriod
	if period <= 0 {
		period = 600
	}
	var tick func()
	tick = func() {
		sc.redistributeOnce()
		if sc.eng.Now()+period < sc.p.SimTime {
			sc.eng.Schedule(period, tick)
		}
	}
	sc.eng.Schedule(period, tick)
}

// redistributeOnce performs at most one hand-off per holding device.
func (sc *scenario) redistributeOnce() {
	for ni := range sc.nodes {
		n := &sc.nodes[ni]
		if len(n.tuples) == 0 {
			continue
		}
		center := n.dev.Rel.MBR().Center()
		own := sc.med.PosOf(n.id).Dist(center)
		best := n
		bestDist := own
		for mi := range sc.nodes {
			if mi == ni {
				continue
			}
			m := &sc.nodes[mi]
			if d := sc.med.PosOf(m.id).Dist(center); d < bestDist {
				best = m
				bestDist = d
			}
		}
		// Hand off only for a clear win, to a reachable device.
		if best == n || bestDist > own/2 || !sc.med.InRange(n.id, best.id) {
			continue
		}
		// Charge the hand-off to the network at its true byte size (one
		// in-range hop); nodes ignore the frame itself because the state
		// change below is applied atomically.
		sc.net.Send(n.id, best.id, &xferMsg{count: len(n.tuples), dim: sc.p.Dim})
		moved := n.tuples
		n.tuples = nil
		n.dev.Rel = storage.NewHybrid(nil)
		best.tuples = append(best.tuples, moved...)
		best.dev.Rel = storage.NewHybrid(best.tuples)
		sc.redist.transfers++
	}
}
