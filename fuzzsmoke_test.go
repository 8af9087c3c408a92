package manetskyline

import (
	"go/ast"
	"os"
	"path"
	"slices"
	"strings"
	"testing"
)

// ciFile is the workflow whose "Fuzz smoke" step runs every fuzz target.
const ciFile = ".github/workflows/ci.yml"

// TestFuzzTargetsInCI fails on a fuzz target of this module or of the
// benchmark module that the "Fuzz smoke" step of ciFile does not run, and on
// a line of that step that names no target: a target outside the step only
// ever runs its seed corpus.
func TestFuzzTargetsInCI(t *testing.T) {
	step := fuzzSmokeStep(t)
	files := sourceFiles(t, ".", "", true)
	files = append(files, sourceFiles(t, "benchmark", "benchmark", true)...)
	found := map[string]bool{}
	for _, gf := range files {
		for _, d := range gf.f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && isFuzzTarget(fd) {
				found[fd.Name.Name+" "+gf.dir] = true
			}
		}
	}
	if len(found) == 0 {
		t.Fatal("found no fuzz targets")
	}
	for target := range found {
		if !step[target] {
			t.Errorf("fuzz target %s is not in the Fuzz smoke step of %s", target, ciFile)
		}
	}
	for target := range step {
		if !found[target] {
			t.Errorf("the Fuzz smoke step of %s runs %s, which is no fuzz target", ciFile, target)
		}
	}
}

// isFuzzTarget reports whether fd is a top-level func FuzzXxx(*testing.F).
func isFuzzTarget(fd *ast.FuncDecl) bool {
	if fd.Recv != nil || !strings.HasPrefix(fd.Name.Name, "Fuzz") || len(fd.Type.Params.List) != 1 {
		return false
	}
	star, ok := fd.Type.Params.List[0].Type.(*ast.StarExpr)
	if !ok {
		return false
	}
	sel, ok := star.X.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "F"
}

// fuzzSmokeStep reads the "Fuzz smoke" step of ciFile as a set of "Name dir"
// entries, one per `go test -fuzz Name ... ./dir` line; a line that changes
// into the benchmark module first names a directory under it.
func fuzzSmokeStep(t *testing.T) map[string]bool {
	t.Helper()
	b, err := os.ReadFile(ciFile)
	if err != nil {
		t.Fatal(err)
	}
	step, in := map[string]bool{}, false
	for _, line := range strings.Split(string(b), "\n") {
		if name, ok := strings.CutPrefix(strings.TrimSpace(line), "- name:"); ok {
			in = strings.HasPrefix(strings.TrimSpace(name), "Fuzz smoke")
			continue
		}
		fields := strings.Fields(line)
		i := slices.Index(fields, "-fuzz")
		if !in || i < 0 || i+1 >= len(fields) {
			continue
		}
		dir := path.Clean(fields[len(fields)-1])
		if strings.Contains(line, "cd benchmark") {
			dir = path.Join("benchmark", dir)
		}
		step[strings.Trim(fields[i+1], "^$")+" "+dir] = true
	}
	if len(step) == 0 {
		t.Fatalf("%s has no Fuzz smoke step with a -fuzz line", ciFile)
	}
	return step
}
