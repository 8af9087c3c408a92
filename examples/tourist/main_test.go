package main

import (
	"strings"
	"testing"

	"manetskyline/internal/gen"
	"manetskyline/internal/leaktest"
	"manetskyline/internal/skyline"
)

// TestTouristMatchesCentralized runs the example end to end and checks the
// tourist's distributed answer against the centralized constrained skyline
// over every restaurant. Closing the sixteen peers must leak no goroutine.
func TestTouristMatchesCentralized(t *testing.T) {
	defer leaktest.Check(t)()

	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "complete=true") {
		t.Errorf("run output lacks complete=true:\n%s", out.String())
	}

	_, peers, err := city()
	if err != nil {
		t.Fatalf("city: %v", err)
	}
	defer closeAll(peers)
	me := peers[tourist]
	res, err := me.Query(walkingDistance, len(peers))
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if !res.Complete {
		t.Fatalf("query incomplete: %d of %d results", res.Results, len(peers)-1)
	}
	want := skyline.Constrained(gen.Generate(district), me.Pos(), walkingDistance)
	if !skyline.SetEqual(res.Skyline, want) {
		t.Errorf("got %d tuples, want the centralized %d", len(res.Skyline), len(want))
	}
}
