package bench

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden sweep tables")

// TestFig8Fig12Golden extends the PR 1 determinism gate across PRs: the
// fig8 DRR tables and the fig12 message-count table at Small scale must be
// byte-identical to the golden files captured before the simulation fast
// path (spatial neighbor grid, value-heap scheduler, cached mobility)
// landed — at every worker count. Regenerate with `go test -run
// TestFig8Fig12Golden ./internal/bench -update` only when an intentional
// semantic change to the simulation is being made.
func TestFig8Fig12Golden(t *testing.T) {
	goldens := map[string][]byte{}
	for _, w := range []int{1, 4} {
		sw := smallSweep(t, w)
		goldens["fig8-small.golden"] = renderAll(t, sw.drr)
		goldens["fig12-small.golden"] = renderAll(t, []*Table{sw.msgs})
		for name, got := range goldens {
			path := filepath.Join("testdata", name)
			if *updateGolden {
				if w > 1 {
					continue // goldens come from the serial run
				}
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("workers=%d: %s diverged from pre-fast-path output:\ngot:\n%s\nwant:\n%s",
					w, name, got, want)
			}
		}
	}
}
