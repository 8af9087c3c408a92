package manetskyline

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// liveWithoutCaller lists the exported top-level functions and methods of
// internal/ that no non-test file calls but that stay, each with its
// reason.
var liveWithoutCaller = map[string]string{
	"internal/device.Desktop":     "the paper's simulation-host constants, kept to re-run the claim table under them (ROADMAP 6(b))",
	"internal/leaktest.Check":     "test-support entry point: tests defer it to catch leaked goroutines",
	"internal/chaos.Soak":         "test-support entry point: the chaos soak tests drive the fleet through it",
	"internal/chaos.SoakOverload": "test-support entry point: the overload soak tests drive the gateway through it",

	"internal/tuple.Rect.MaxDist":           "the dual of MinDist; core's coverage tests build covering query distances from it",
	"internal/tuple.Tuple.DominatesOrEqual": "weak dominance; core's dominance fuzz checks that Dominates implies it",
}

// goFile is one parsed source file, its path and the module-relative,
// slash-separated directory it lives in.
type goFile struct {
	path, dir string
	f         *ast.File
}

// sourceFiles parses every .go file under root, test files only when tests
// is set, skipping testdata, hidden directories and nested modules; prefix
// is prepended to each file's directory.
func sourceFiles(t *testing.T, root, prefix string, tests bool) []goFile {
	t.Helper()
	var out []goFile
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p == root {
				return nil
			}
			if d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || !tests && strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		out = append(out, goFile{path: p, dir: path.Join(prefix, filepath.ToSlash(rel)), f: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestNoDeadExports fails on an exported top-level function or method in
// internal/ that no non-test file of this module or of the benchmark module
// refers to: code that only its own tests reach is a second way of doing
// something, and goes. Methods are matched by name alone, without type
// information: one counts as live when any such file selects its name or
// any interface declares it, so the check can miss a dead method but never
// flags a live one.
func TestNoDeadExports(t *testing.T) {
	files := sourceFiles(t, ".", "", false)
	files = append(files, sourceFiles(t, "benchmark", "benchmark", false)...)

	// Exported top-level functions of internal/, as "dir.Name", and
	// exported methods of exported types, as "dir.Type.Name" keyed to their
	// bare name.
	exported := map[string]bool{}
	methods := map[string]string{}
	for _, gf := range files {
		if !strings.HasPrefix(gf.dir, "internal/") {
			continue
		}
		for _, decl := range gf.f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			if fd.Recv == nil {
				exported[gf.dir+"."+fd.Name.Name] = true
			} else if typ := recvType(fd.Recv.List[0].Type); ast.IsExported(typ) {
				methods[gf.dir+"."+typ+"."+fd.Name.Name] = fd.Name.Name
			}
		}
	}
	if len(exported) == 0 || len(methods) == 0 {
		t.Fatal("found no exported functions or methods in internal/")
	}

	// References: pkg.Name through an import of this module, or a bare
	// Name inside the declaring package other than the function's own body.
	// Every other selected name, and every name an interface declares,
	// keeps the methods of that name live.
	used := map[string]bool{}
	selected := map[string]bool{}
	for _, gf := range files {
		ast.Inspect(gf.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				selected[n.Sel.Name] = true
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, name := range m.Names {
						selected[name.Name] = true
					}
				}
			}
			return true
		})
		imports := map[string]string{} // local name -> module-relative dir
		for _, imp := range gf.f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.HasPrefix(p, module) {
				continue
			}
			name := path.Base(p)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = strings.TrimPrefix(p, module)
		}
		for _, decl := range gf.f.Decls {
			self := ""
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil {
				self = fd.Name.Name
			}
			var visit func(ast.Node) bool
			visit = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					// The declared name is not a reference.
					if n.Recv != nil {
						ast.Inspect(n.Recv, visit)
					}
					ast.Inspect(n.Type, visit)
					if n.Body != nil {
						ast.Inspect(n.Body, visit)
					}
					return false
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok {
						if dir, ok := imports[x.Name]; ok {
							used[dir+"."+n.Sel.Name] = true
							return false
						}
					}
					// A field or method name is not a package-level one.
					ast.Inspect(n.X, visit)
					return false
				case *ast.Ident:
					if n.Name != self {
						used[gf.dir+"."+n.Name] = true
					}
				}
				return true
			}
			ast.Inspect(decl, visit)
		}
	}

	var dead []string
	for fn := range exported {
		if !used[fn] {
			if _, ok := liveWithoutCaller[fn]; !ok {
				dead = append(dead, fn)
			}
		} else if _, ok := liveWithoutCaller[fn]; ok {
			t.Errorf("%s is on the allowlist but has a caller now; take it off", fn)
		}
	}
	for m, name := range methods {
		if !selected[name] {
			if _, ok := liveWithoutCaller[m]; !ok {
				dead = append(dead, m)
			}
		} else if _, ok := liveWithoutCaller[m]; ok {
			t.Errorf("%s is on the allowlist but its name is selected now; take it off", m)
		}
	}
	for fn := range liveWithoutCaller {
		if _, ok := methods[fn]; !exported[fn] && !ok {
			t.Errorf("allowlisted %s is not an exported function or method of internal/", fn)
		}
	}
	sort.Strings(dead)
	for _, fn := range dead {
		t.Errorf("%s is exported but no non-test file calls it", fn)
	}
}

// recvType names a method's receiver type, without pointer or type
// parameters.
func recvType(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvType(e.X)
	case *ast.IndexExpr:
		return recvType(e.X)
	case *ast.IndexListExpr:
		return recvType(e.X)
	case *ast.Ident:
		return e.Name
	}
	return ""
}
