package faults

import (
	"testing"

	"manetskyline/internal/tuple"
)

func TestEvalNodeDownAndSevered(t *testing.T) {
	p := &Plan{
		Outages: []Outage{
			{Window: Window{Start: 1, End: 2}, Node: 3},
			{Window: Window{Start: 5}, Node: 4}, // open-ended crash
		},
		Partitions: []Partition{{
			Window: Window{Start: 10, End: 20},
			Groups: [][]int{{0, 1}, {2, 3}},
		}},
	}
	e := NewEval(p, 1)
	if e.NodeDown(3, 0.5) {
		t.Errorf("node 3 down before its window")
	}
	if !e.NodeDown(3, 1.5) {
		t.Errorf("node 3 should be down at 1.5")
	}
	if e.NodeDown(3, 2.0) {
		t.Errorf("node 3 should be back at 2.0")
	}
	if !e.NodeDown(4, 100) {
		t.Errorf("open-ended crash should never end")
	}
	if !e.Severed(0, 3, 1.5) || !e.Severed(3, 0, 1.5) {
		t.Errorf("outage should sever both directions")
	}
	if e.Severed(0, 1, 15) {
		t.Errorf("same partition group should stay connected")
	}
	if !e.Severed(0, 2, 15) {
		t.Errorf("cross-partition link should be severed")
	}
	// Unlisted nodes share the implicit group: 7↔8 connected, 7↔0 severed.
	if e.Severed(7, 8, 15) {
		t.Errorf("two unlisted nodes should stay connected")
	}
	if !e.Severed(7, 0, 15) {
		t.Errorf("unlisted vs listed node should be severed")
	}
}

func TestEvalSeveredUntil(t *testing.T) {
	p := &Plan{
		Outages: []Outage{{Window: Window{Start: 1, End: 3}, Node: 1}},
		Partitions: []Partition{{
			Window: Window{Start: 2, End: 5},
			Groups: [][]int{{0}, {1}},
		}},
	}
	e := NewEval(p, 1)
	if until, forever := e.SeveredUntil(0, 1, 2.5); forever || until != 5 {
		t.Errorf("SeveredUntil = %g %v, want 5 false", until, forever)
	}
	if until, forever := e.SeveredUntil(0, 1, 4.5); forever || until != 5 {
		t.Errorf("SeveredUntil = %g %v, want 5 false", until, forever)
	}
	if until, _ := e.SeveredUntil(0, 1, 6); until != 6 {
		t.Errorf("healed link should return now")
	}
	open := NewEval(&Plan{Outages: []Outage{{Window: Window{Start: 0}, Node: 1}}}, 1)
	if _, forever := open.SeveredUntil(0, 1, 1); !forever {
		t.Errorf("open-ended outage should report forever")
	}
}

func TestEvalCutLinkAndTxEffects(t *testing.T) {
	p := &Plan{
		LinkLoss: []LinkLoss{{
			Window: Window{Start: 0, End: 10}, From: 0, To: 1, Prob: 1,
		}},
		RegionLoss: []RegionLoss{{
			Window: Window{Start: 0, End: 10},
			MinX:   0, MinY: 0, MaxX: 100, MaxY: 100, Prob: 1,
		}},
		Duplicate: []Chaos{{Window: Window{Start: 0, End: 10}, Prob: 1, MaxExtra: 1}},
		Reorder:   []Chaos{{Window: Window{Start: 0, End: 10}, Prob: 1, MaxDelay: 2}},
	}
	e := NewEval(p, 7)
	far := tuple.Point{X: 500, Y: 500}
	if !e.CutLink(0, 1, 5, far, far) {
		t.Errorf("prob-1 link loss should drop")
	}
	if e.CutLink(1, 0, 5, far, far) {
		t.Errorf("unidirectional loss should not drop the reverse link")
	}
	if !e.CutLink(2, 3, 5, tuple.Point{X: 50, Y: 50}, far) {
		t.Errorf("prob-1 region loss should drop frames from inside the region")
	}
	if e.CutLink(0, 1, 50, tuple.Point{}, tuple.Point{}) {
		t.Errorf("nothing should drop outside every window")
	}
	if e.Stats.LinkDrops != 1 || e.Stats.RegionDrops != 1 {
		t.Errorf("drops not tallied by cause: %+v", e.Stats)
	}
	delay, dups := e.TxEffects(5)
	if delay <= 0 || delay > 2 {
		t.Errorf("prob-1 reorder should delay within (0,2], got %g", delay)
	}
	if len(dups) != 1 {
		t.Errorf("prob-1 duplicate with MaxExtra 1 should add one copy, got %d", len(dups))
	}
}
