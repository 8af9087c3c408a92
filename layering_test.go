package manetskyline

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

const module = "manetskyline/"

// moduleImports maps every package directory of this module (relative,
// slash-separated) to the import paths its files name, tests included.
// Nested modules (benchmark/) and testdata are skipped. It parses import
// clauses only, so it needs no go command.
func moduleImports(t *testing.T) map[string][]string {
	t.Helper()
	out := make(map[string][]string)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			if !slices.Contains(out[dir], p) {
				out[dir] = append(out[dir], p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestLayering pins the package layering the protocol core relies on:
// internal/core is the transport-agnostic protocol (no simulator, radio,
// routing, mobility, wire format, sockets or clocks), only the simulator's
// own layers reach the radio and routing substrate, internal/faults
// reaches neither it nor the event engine (the live tier uses the same
// evaluator), and that substrate counts in its own per-run Counters, not
// in the telemetry registry.
func TestLayering(t *testing.T) {
	imports := moduleImports(t)
	if len(imports["internal/core"]) == 0 {
		t.Fatal("found no imports for internal/core")
	}
	for _, p := range imports["internal/core"] {
		switch p {
		case module + "internal/sim", module + "internal/radio", module + "internal/aodv",
			module + "internal/mobility", module + "internal/wire", "net", "time":
			t.Errorf("internal/core imports %s", p)
		}
	}
	for _, dir := range []string{"internal/radio", "internal/aodv"} {
		if slices.Contains(imports[dir], module+"internal/telemetry") {
			t.Errorf("%s imports internal/telemetry", dir)
		}
	}
	for _, p := range imports["internal/faults"] {
		if p == module+"internal/sim" {
			t.Errorf("internal/faults imports %s; one evaluator serves both tiers", p)
		}
	}
	substrate := []string{module + "internal/radio", module + "internal/aodv"}
	allowed := []string{"internal/aodv", "internal/manet"}
	for dir, ps := range imports {
		for _, p := range ps {
			if slices.Contains(substrate, p) && !slices.Contains(allowed, dir) {
				t.Errorf("%s imports %s; only %v may", dir, p, allowed)
			}
		}
	}
}
