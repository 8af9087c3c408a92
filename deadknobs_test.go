package manetskyline

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"
	"testing"
)

// unsetKnobs lists the exported fields of internal/'s Config, Params and
// Options structs that nothing outside their own file writes but that stay,
// each with its reason.
var unsetKnobs = map[string]string{
	"internal/manet.Params.Cost": "the device cost model, kept to re-run the claim table under device.Desktop (ROADMAP 6(b))",
}

// TestNoDeadKnobs fails on an exported field of an exported struct in
// internal/ whose name ends in Config, Params or Options that no file of
// this module or of the benchmark module writes, tests included, outside
// the file that declares it: a knob only its own defaults set is a
// constant. A write is a composite-literal key, or an assignment, an
// increment or an address taken through a selector chain, so
// p.Radio.Range = 1 writes both Radio and Range. Fields are matched by
// name alone, without type information, so the check can miss a dead knob
// but never flags a live one.
func TestNoDeadKnobs(t *testing.T) {
	files := sourceFiles(t, ".", "", true)
	files = append(files, sourceFiles(t, "benchmark", "benchmark", true)...)

	// Knob fields, as "dir.Type.Field", with their bare name and the file
	// that declares them.
	type knob struct{ name, file string }
	knobs := map[string]knob{}
	for _, gf := range files {
		if !strings.HasPrefix(gf.dir, "internal/") || strings.HasSuffix(gf.path, "_test.go") {
			continue
		}
		ast.Inspect(gf.f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || !ts.Name.IsExported() || !strings.HasSuffix(ts.Name.Name, "Config") &&
				!strings.HasSuffix(ts.Name.Name, "Params") && !strings.HasSuffix(ts.Name.Name, "Options") {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return false
			}
			for _, f := range st.Fields.List {
				for _, name := range f.Names {
					if name.IsExported() {
						knobs[gf.dir+"."+ts.Name.Name+"."+name.Name] = knob{name.Name, gf.path}
					}
				}
			}
			return false
		})
	}
	if len(knobs) == 0 {
		t.Fatal("found no Config, Params or Options fields in internal/")
	}

	// Field names written, each with the files that write them.
	written := map[string]map[string]bool{}
	write := func(name, file string) {
		if written[name] == nil {
			written[name] = map[string]bool{}
		}
		written[name][file] = true
	}
	for _, gf := range files {
		var chain func(ast.Expr)
		chain = func(e ast.Expr) {
			switch e := e.(type) {
			case *ast.SelectorExpr:
				write(e.Sel.Name, gf.path)
				chain(e.X)
			case *ast.IndexExpr:
				chain(e.X)
			case *ast.ParenExpr:
				chain(e.X)
			case *ast.StarExpr:
				chain(e.X)
			}
		}
		ast.Inspect(gf.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				for _, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if key, ok := kv.Key.(*ast.Ident); ok {
							write(key.Name, gf.path)
						}
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					chain(lhs)
				}
			case *ast.IncDecStmt:
				chain(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					chain(n.X)
				}
			}
			return true
		})
	}

	var dead []string
	for id, k := range knobs {
		live := false
		for file := range written[k.name] {
			live = live || file != k.file
		}
		_, allowed := unsetKnobs[id]
		switch {
		case !live && !allowed:
			dead = append(dead, id)
		case live && allowed:
			t.Errorf("%s is on the allowlist but is written now; take it off", id)
		}
	}
	for id := range unsetKnobs {
		if _, ok := knobs[id]; !ok {
			t.Errorf("allowlisted %s is not a Config, Params or Options field of internal/", id)
		}
	}
	sort.Strings(dead)
	for _, id := range dead {
		t.Errorf("%s is a knob that nothing outside its own file sets; make it a constant", id)
	}
}
