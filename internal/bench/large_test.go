package bench

import (
	"os"
	"testing"
	"time"

	"manetskyline/internal/manet"
)

func TestScenarioLargeGeometry(t *testing.T) {
	p := ScenarioLarge(LargeConfig{Nodes: 1000, Strategy: manet.BreadthFirst})
	if p.Grid != 32 || p.NumDevices() != 1024 {
		t.Fatalf("1000 nodes → grid %d (%d devices), want 32 (1024)", p.Grid, p.NumDevices())
	}
	if p.Space != 125*32 {
		t.Fatalf("space %g, want %g", p.Space, 125.0*32)
	}
	if p.Mobility.Space != p.Space {
		t.Fatalf("mobility space %g diverges from field %g", p.Mobility.Space, p.Space)
	}
	if p.Radio.LinkQueue <= 0 {
		t.Fatal("link queues not bounded")
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("invalid params: %v", err)
	}
}

func TestRunLargeSmall(t *testing.T) {
	for _, s := range []manet.Forwarding{manet.BreadthFirst, manet.DepthFirst} {
		p := ScenarioLarge(LargeConfig{Nodes: 400, Strategy: s, SimTime: 120})
		if p.NumDevices() != 400 {
			t.Fatalf("%v: devices %d, want 400", s, p.NumDevices())
		}
		out := manet.Run(p)
		if out.Events == 0 {
			t.Fatalf("%v: no events executed", s)
		}
		if out.CompletionRate() == 0 {
			t.Fatalf("%v: %d queries, none completed — scale scenario inert", s, len(out.Queries))
		}
		if out.Radio.FramesSent == 0 {
			t.Fatalf("%v: radio idle", s)
		}
	}
}

// TestScaleSmoke30k is the CI scale gate: a 30k-node breadth-first run must
// finish inside the job's time budget and sustain a minimum event
// throughput. Gated behind SCALE_SMOKE=1 so routine `go test ./...` stays
// fast.
func TestScaleSmoke30k(t *testing.T) {
	if os.Getenv("SCALE_SMOKE") == "" {
		t.Skip("set SCALE_SMOKE=1 to run the 30k-node smoke test")
	}
	p := ScenarioLarge(LargeConfig{Nodes: 30000, Strategy: manet.BreadthFirst, SimTime: 300})
	start := time.Now()
	out := manet.Run(p)
	wall := time.Since(start)
	eps := float64(out.Events) / wall.Seconds()
	t.Logf("%d devices: %d events in %.2fs wall (%.0f events/sec), %.0f%% of %d queries completed",
		p.NumDevices(), out.Events, wall.Seconds(), eps, 100*out.CompletionRate(), len(out.Queries))
	if p.NumDevices() < 30000 {
		t.Fatalf("devices %d < 30000", p.NumDevices())
	}
	if out.CompletionRate() == 0 {
		t.Fatal("no queries completed at 30k nodes")
	}
	// Throughput floor: the struct-of-arrays engine clears well over a
	// million events/sec on developer hardware; 200k/sec catches an
	// order-of-magnitude regression without flaking on slow CI runners.
	if eps < 200_000 {
		t.Fatalf("throughput %.0f events/sec below the 200k floor", eps)
	}
}
