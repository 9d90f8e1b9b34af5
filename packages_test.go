package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// exemptPackages lists the packages no program imports on purpose, each
// with its reason.
var exemptPackages = map[string]string{
	// The dense LU is the test oracle internal/sparse is checked
	// against; shipping it in a program would defeat its purpose.
	"internal/dense": "test oracle of internal/sparse",
}

// TestEveryPackageHasAProgram walks the imports of every cmd/* and
// examples/* main package, transitively within the module, and fails on
// any non-main package of the module that none of them reaches: code
// that only tests or benchmarks ever run is code the system does not
// need. Only non-test files count as imports.
func TestEveryPackageHasAProgram(t *testing.T) {
	exempt := exemptPackages
	mod := modulePath(t)
	pkgs := modulePackages(t)
	var roots []string
	for dir, name := range pkgs {
		if name == "main" && (strings.HasPrefix(dir, "cmd/") || strings.HasPrefix(dir, "examples/")) {
			roots = append(roots, dir)
		}
	}
	if len(roots) == 0 {
		t.Fatal("no cmd/* or examples/* main package found")
	}
	reached := make(map[string]bool)
	for queue := roots; len(queue) > 0; {
		dir := queue[0]
		queue = queue[1:]
		if reached[dir] {
			continue
		}
		reached[dir] = true
		for _, imp := range packageImports(t, dir) {
			if rel, ok := strings.CutPrefix(imp, mod+"/"); ok {
				queue = append(queue, rel)
			}
		}
	}
	var orphans []string
	for dir, name := range pkgs {
		if name != "main" && !reached[dir] && exempt[dir] == "" {
			orphans = append(orphans, dir)
		}
	}
	sort.Strings(orphans)
	for _, dir := range orphans {
		t.Errorf("package %s/%s is imported by no cmd/* or examples/* program", mod, dir)
	}
	for dir := range exempt {
		if reached[dir] {
			t.Errorf("exempt package %s is reached by a program; drop its exemption", dir)
		}
		if _, ok := pkgs[dir]; !ok {
			t.Errorf("exempt package %s does not exist; drop its exemption", dir)
		}
	}
}

// TestEveryFunctionHasACaller is TestEveryPackageHasAProgram at
// function level: every exported top-level function of an internal/
// package must be named by a non-test file of its own package or by any
// file of another package. A function only its own package's tests call
// is code the system does not need.
func TestEveryFunctionHasACaller(t *testing.T) {
	// Functions kept for their own package's tests on purpose, each with
	// its reason (package directory, a dot, the function name).
	exempt := map[string]string{
		"internal/dft.Forward":        "test oracle: the plain complex128 forward transform",
		"internal/dft.InverseComplex": "test oracle: the plain complex128 inverse transform",
		"internal/roots.Reconstruct":  "test oracle: multiplies found roots back into their polynomial",
	}
	pkgs := modulePackages(t)
	mod := modulePath(t)
	files := parseGoFiles(t)
	type fn struct{ dir, name string }
	var funcs []fn
	for _, f := range files {
		if f.test || !strings.HasPrefix(f.dir, "internal/") || exemptPackages[f.dir] != "" {
			continue
		}
		for _, d := range f.ast.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.IsExported() {
				funcs = append(funcs, fn{f.dir, fd.Name.Name})
			}
		}
	}
	// named[dir.Name]: a qualifying file names the function.
	named := make(map[string]bool)
	for _, f := range files {
		if !f.test {
			for id := range ownIdents(f.ast) {
				named[f.dir+"."+id] = true
			}
		}
		local := make(map[string]string) // import name -> package directory
		for _, spec := range f.ast.Imports {
			p, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			dir, ok := strings.CutPrefix(p, mod+"/")
			if !ok || dir == f.dir || pkgs[dir] == "" {
				continue
			}
			name := pkgs[dir]
			if spec.Name != nil {
				name = spec.Name.Name
			}
			local[name] = dir
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && local[x.Name] != "" {
					named[local[x.Name]+"."+sel.Sel.Name] = true
				}
			}
			return true
		})
	}
	flagged := make(map[string]bool)
	for _, f := range funcs {
		key := f.dir + "." + f.name
		if named[key] {
			continue
		}
		flagged[key] = true
		if exempt[key] == "" {
			t.Errorf("%s/%s is named only by its own package's tests", mod, key)
		}
	}
	for key := range exempt {
		if !flagged[key] {
			t.Errorf("exempt function %s has a caller or does not exist; drop its exemption", key)
		}
	}
}

// goFile is one parsed Go file of the repository.
type goFile struct {
	dir  string // slash-separated, relative to the module root
	test bool
	ast  *ast.File
}

// parseGoFiles parses every Go file under the module root, test files
// and nested modules included; testdata and hidden directories are
// skipped.
func parseGoFiles(t *testing.T) []goFile {
	t.Helper()
	var files []goFile
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			base := d.Name()
			if p != "." && (base == "testdata" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, goFile{filepath.ToSlash(filepath.Dir(p)), strings.HasSuffix(p, "_test.go"), f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// ownIdents returns the identifiers f uses as unqualified names: every
// identifier except declared function names, struct field and
// composite-literal key names and the selected name of a selector.
func ownIdents(f *ast.File) map[string]bool {
	skip := make(map[*ast.Ident]bool)
	used := make(map[string]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			skip[n.Name] = true
		case *ast.Field:
			for _, id := range n.Names {
				skip[id] = true
			}
		case *ast.KeyValueExpr:
			if id, ok := n.Key.(*ast.Ident); ok {
				skip[id] = true
			}
		case *ast.SelectorExpr:
			skip[n.Sel] = true
		case *ast.Ident:
			if !skip[n] {
				used[n.Name] = true
			}
		}
		return true
	})
	return used
}

// modulePath reads the module path from go.mod.
func modulePath(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile("go.mod")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^module\s+(\S+)`).FindSubmatch(data)
	if m == nil {
		t.Fatal("go.mod has no module line")
	}
	return string(m[1])
}

// modulePackages maps each directory of the module (slash-separated,
// relative to its root) that holds non-test Go files to their package
// name. Nested modules, testdata and hidden directories are skipped, as
// the go tool skips them.
func modulePackages(t *testing.T) map[string]string {
	t.Helper()
	pkgs := make(map[string]string)
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			base := d.Name()
			if p != "." && (base == "testdata" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); p != "." && err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !isSourceFile(d.Name()) {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), p, nil, parser.PackageClauseOnly)
		if err != nil {
			return err
		}
		pkgs[filepath.ToSlash(filepath.Dir(p))] = f.Name.Name
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

// packageImports returns the import paths of dir's non-test Go files.
func packageImports(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(filepath.FromSlash(dir))
	if err != nil {
		t.Fatal(err)
	}
	var imports []string
	for _, e := range entries {
		if e.IsDir() || !isSourceFile(e.Name()) {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), path.Join(dir, e.Name()), nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range f.Imports {
			p, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			imports = append(imports, p)
		}
	}
	return imports
}

func isSourceFile(name string) bool {
	return strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go")
}
