package bench

import (
	"bytes"
	"runtime"
	"sync/atomic"
	"testing"

	"manetskyline/internal/gen"
)

// withWorkers runs the body under a fixed pool width and restores the
// previous setting afterwards.
func withWorkers(t *testing.T, n int, body func()) {
	t.Helper()
	prev := int(workerCount.Load())
	SetWorkers(n)
	defer workerCount.Store(int64(prev))
	body()
}

func TestWorkersDefaultsToGOMAXPROCS(t *testing.T) {
	prev := int(workerCount.Load())
	defer workerCount.Store(int64(prev))
	SetWorkers(0)
	if got := Workers(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers() = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	SetWorkers(-3)
	if got := Workers(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers() after negative set = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	SetWorkers(3)
	if got := Workers(); got != 3 {
		t.Errorf("Workers() = %d, want 3", got)
	}
}

func TestForEachRunsEveryJobExactlyOnce(t *testing.T) {
	for _, w := range []int{1, 2, 8} {
		withWorkers(t, w, func() {
			const n = 137
			var counts [n]atomic.Int64
			forEach(n, func(i int) { counts[i].Add(1) })
			for i := range counts {
				if c := counts[i].Load(); c != 1 {
					t.Errorf("workers=%d: job %d ran %d times", w, i, c)
				}
			}
		})
	}
	// Degenerate sizes must not hang or panic.
	withWorkers(t, 4, func() {
		forEach(0, func(int) { t.Error("job ran for n=0") })
		ran := false
		forEach(1, func(int) { ran = true })
		if !ran {
			t.Error("single job did not run")
		}
	})
}

// sweepTables is one fresh Small fig8/fig10 sweep: its DRR, response-time
// and message tables.
type sweepTables struct {
	drr, resp []*Table
	msgs      *Table
}

// smallSweeps holds one sweep per worker count, which TestFig8Fig12Golden and
// TestParallelSweepDeterministic share. Neither runs in parallel.
var smallSweeps = map[int]sweepTables{}

// smallSweep returns the fresh Small sweep run under w workers, computing it
// on first use.
func smallSweep(t *testing.T, w int) sweepTables {
	t.Helper()
	sw, ok := smallSweeps[w]
	if !ok {
		withWorkers(t, w, func() {
			sw.drr, sw.resp, sw.msgs = simFiguresFresh(Small, gen.Independent, "fig8", "fig10")
		})
		smallSweeps[w] = sw
	}
	return sw
}

// renderAll emits tables to one byte stream for comparison.
func renderAll(t *testing.T, tables []*Table) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Emit(&buf, "", tables...); err != nil {
		t.Fatalf("Emit: %v", err)
	}
	return buf.Bytes()
}

// TestParallelSweepDeterministic is the tentpole's contract: the parallel
// sweep engine must emit tables byte-identical to the serial (-workers=1)
// harness, for both the MANET simulation sweep and the static pre-tests.
func TestParallelSweepDeterministic(t *testing.T) {
	sim := func(w int) []byte {
		sw := smallSweep(t, w)
		return renderAll(t, append(append(append([]*Table{}, sw.drr...), sw.resp...), sw.msgs))
	}
	serialSim, parallelSim := sim(1), sim(4)
	var serialStatic, parallelStatic []byte
	withWorkers(t, 1, func() { serialStatic = renderAll(t, staticFigure(Small, gen.Independent, "fig6")) })
	withWorkers(t, 4, func() { parallelStatic = renderAll(t, staticFigure(Small, gen.Independent, "fig6")) })
	if !bytes.Equal(serialSim, parallelSim) {
		t.Errorf("simulation sweep diverges between -workers=1 and -workers=4:\nserial:\n%s\nparallel:\n%s", serialSim, parallelSim)
	}
	if !bytes.Equal(serialStatic, parallelStatic) {
		t.Errorf("static sweep diverges between -workers=1 and -workers=4:\nserial:\n%s\nparallel:\n%s", serialStatic, parallelStatic)
	}
}

// TestSimFiguresMemoized verifies the satellite fix for redundant full-sweep
// recomputation: Fig8/Fig10/Fig12 must share one sweep per (scale,
// distribution) instead of re-running the simulations.
func TestSimFiguresMemoized(t *testing.T) {
	drr1, resp1, msgs1 := simFigures(Small, gen.Independent, "fig8", "fig10")
	drr2, resp2, msgs2 := simFigures(Small, gen.Independent, "fig8", "fig10")
	if len(drr1) == 0 || drr1[0] != drr2[0] || resp1[0] != resp2[0] || msgs1 != msgs2 {
		t.Errorf("repeated simFigures calls should return the memoized tables")
	}
	// Fig12 re-presents the memoized message table under its own ID.
	fig12 := Fig12(Small)
	if len(fig12) != 1 || fig12[0].ID != "fig12" {
		t.Fatalf("Fig12 shape wrong: %+v", fig12)
	}
	if len(fig12[0].Rows) != len(msgs1.Rows) {
		t.Fatalf("Fig12 has %d rows, sweep msgs has %d", len(fig12[0].Rows), len(msgs1.Rows))
	}
	for i := range msgs1.Rows {
		for j := range msgs1.Rows[i] {
			if fig12[0].Rows[i][j] != msgs1.Rows[i][j] {
				t.Errorf("Fig12 row %d cell %d = %q, sweep msgs %q", i, j, fig12[0].Rows[i][j], msgs1.Rows[i][j])
			}
		}
	}
}
