package radio

import (
	"math"
	"testing"

	"manetskyline/internal/sim"
)

// linkQueueMedium builds a star: one receiver at the origin-ish center and
// three senders on a circle inside its range but out of range of each
// other, so every broadcast is heard only by the center node.
func linkQueueMedium(t *testing.T, queue int) (*sim.Engine, *Medium, *[]float64) {
	t.Helper()
	eng := sim.NewEngine(1)
	cfg := DefaultConfig()
	cfg.Range = 100
	cfg.LinkQueue = queue
	med := New(eng, cfg)
	var rx []float64
	med.AddNode(mobilityAt(500, 500), func(NodeID, Payload) { rx = append(rx, eng.Now()) })
	for i := 0; i < 3; i++ {
		a := 2 * math.Pi * float64(i) / 3
		med.AddNode(mobilityAt(500+90*math.Cos(a), 500+90*math.Sin(a)), func(NodeID, Payload) {
			t.Fatalf("senders must be out of range of each other")
		})
	}
	return eng, med, &rx
}

func mobilityAt(x, y float64) linearModel { return linearModel{x0: x, y0: y} }

// TestLinkQueueSerializesReceiver checks per-link transmit modeling:
// simultaneous frames addressed to one receiver arrive back-to-back,
// separated by the frame airtime, instead of landing at the same instant
// as the legacy shared-channel model allows.
func TestLinkQueueSerializesReceiver(t *testing.T) {
	eng, med, rx := linkQueueMedium(t, 8)
	p := fakePayload(64)
	airtime := float64(64+headerBytes) * 8 / med.Config().Bandwidth
	nominal := airtime + med.Config().Overhead
	for s := NodeID(1); s <= 3; s++ {
		if n := med.Broadcast(s, p); n != 1 {
			t.Fatalf("sender %d addressed %d receivers, want 1", s, n)
		}
	}
	eng.RunAll()
	want := []float64{nominal, nominal + airtime, nominal + 2*airtime}
	if len(*rx) != 3 {
		t.Fatalf("got %d receptions, want 3", len(*rx))
	}
	for i, at := range *rx {
		if math.Abs(at-want[i]) > 1e-12 {
			t.Errorf("reception %d at t=%g, want %g", i, at, want[i])
		}
	}
	if med.Counters.DroppedQueue != 0 {
		t.Errorf("DroppedQueue = %d, want 0", med.Counters.DroppedQueue)
	}
}

// TestLinkQueueBoundedDrop checks the bounded send queue: with capacity 1
// airtime, the third simultaneous frame would queue 2 airtimes behind the
// receiver's busy horizon and must be dropped and counted.
func TestLinkQueueBoundedDrop(t *testing.T) {
	eng, med, rx := linkQueueMedium(t, 1)
	p := fakePayload(64)
	for s := NodeID(1); s <= 3; s++ {
		med.Broadcast(s, p)
	}
	eng.RunAll()
	if len(*rx) != 2 {
		t.Fatalf("got %d receptions, want 2 (third dropped at the queue)", len(*rx))
	}
	if med.Counters.DroppedQueue != 1 {
		t.Errorf("DroppedQueue = %d, want 1", med.Counters.DroppedQueue)
	}
	if med.Counters.Receptions != 2 {
		t.Errorf("Receptions = %d, want 2", med.Counters.Receptions)
	}
	// Every in-flight slot must have been recycled with its payload
	// released — the refcounted free list is what keeps a 30k-node flood
	// from retaining frames.
	if len(med.freeSlots) != len(med.inflight) {
		t.Errorf("leaked slots: %d free of %d", len(med.freeSlots), len(med.inflight))
	}
	for i := range med.inflight {
		if med.inflight[i].p != nil {
			t.Errorf("slot %d retains payload", i)
		}
	}
}

// TestLegacySlotRecycling pins the same no-leak invariant for the default
// shared-event delivery path.
func TestLegacySlotRecycling(t *testing.T) {
	eng, med, rx := linkQueueMedium(t, 0)
	p := fakePayload(64)
	for round := 0; round < 4; round++ {
		for s := NodeID(1); s <= 3; s++ {
			med.Broadcast(s, p)
		}
		eng.RunAll()
	}
	if len(*rx) != 12 {
		t.Fatalf("got %d receptions, want 12", len(*rx))
	}
	if len(med.freeSlots) != len(med.inflight) {
		t.Errorf("leaked slots: %d free of %d", len(med.freeSlots), len(med.inflight))
	}
	for i := range med.inflight {
		if med.inflight[i].p != nil {
			t.Errorf("slot %d retains payload", i)
		}
	}
}
