package telemetry

import (
	"strings"
	"testing"
)

func TestSpanLifecycle(t *testing.T) {
	l := NewSpanLog()
	k := SpanKey{Org: 0, Cnt: 0} // zero key must work (device 0, wrapped counter)
	l.Begin(k, 1.0)
	l.Observe(k, Stage{T: 1.5, Kind: StageProcess, Device: 3, Tuples: 12, Hops: 2, Pruned: 5})
	l.Observe(k, Stage{T: 1.6, Kind: StageFilterUpdate, Device: 3})
	l.Observe(k, Stage{T: 2.0, Kind: StageResult, Device: 0, Tuples: 12, Hops: 3})
	l.Observe(k, Stage{T: 2.2, Kind: StageProcess, Device: 5, Tuples: 8, Pruned: 2})
	l.Complete(k, 3.0, 20)

	if l.Len() != 1 {
		t.Fatalf("len = %d, want 1", l.Len())
	}
	sp := l.Spans()[0]
	if !sp.Done || sp.Start != 1.0 || sp.End != 3.0 {
		t.Errorf("span bounds wrong: %+v", sp)
	}
	if sp.Duration() != 2.0 {
		t.Errorf("duration = %g, want 2", sp.Duration())
	}
	if sp.Devices != 2 || sp.Results != 1 || sp.FilterUpdates != 1 {
		t.Errorf("tallies wrong: %+v", sp)
	}
	if sp.MaxHops != 3 || sp.Pruned != 7 || sp.ResultTuples != 20 {
		t.Errorf("aggregates wrong: %+v", sp)
	}
	// Timeline: issue first, complete last, 6 stages total.
	if n := len(sp.Stages); n != 6 {
		t.Fatalf("stages = %d, want 6", n)
	}
	if sp.Stages[0].Kind != StageIssue || sp.Stages[5].Kind != StageComplete {
		t.Errorf("timeline ends wrong: %v … %v", sp.Stages[0].Kind, sp.Stages[5].Kind)
	}
}

func TestSpanLogEdgeCases(t *testing.T) {
	l := NewSpanLog()
	k := SpanKey{Org: 1, Cnt: 2}
	// Stages before Begin are dropped, not panics.
	l.Observe(k, Stage{Kind: StageProcess})
	l.Complete(k, 1, 0)
	if l.Len() != 0 {
		t.Errorf("orphan stages must not create spans")
	}
	l.Begin(k, 0)
	l.Begin(k, 5) // duplicate Begin ignored
	l.Complete(k, 2, 1)
	l.Complete(k, 9, 99) // duplicate Complete ignored
	sp := l.Spans()[0]
	if sp.Start != 0 || sp.End != 2 || sp.ResultTuples != 1 {
		t.Errorf("duplicate begin/complete must be ignored: %+v", sp)
	}
}

func TestNilSpanLogIsNoOp(t *testing.T) {
	var l *SpanLog
	k := SpanKey{}
	l.Begin(k, 0)
	l.Observe(k, Stage{Kind: StageProcess})
	l.SetRecall(k, 1)
	l.Complete(k, 1, 0)
	if l.Len() != 0 || l.Spans() != nil {
		t.Errorf("nil span log must no-op")
	}
	var sb strings.Builder
	if err := l.WriteJSONL(&sb); err != nil {
		t.Errorf("nil WriteJSONL: %v", err)
	}
	if sb.Len() != 0 {
		t.Errorf("nil span log JSONL = %q, want empty", sb.String())
	}
}
