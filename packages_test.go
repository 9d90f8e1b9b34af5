package repro_test

import (
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

// TestEveryPackageHasAProgram walks the imports of every cmd/* and
// examples/* main package, transitively within the module, and fails on
// any non-main package of the module that none of them reaches: code
// that only tests or benchmarks ever run is code the system does not
// need. Only non-test files count as imports.
func TestEveryPackageHasAProgram(t *testing.T) {
	// Packages that no program imports on purpose, each with its reason.
	exempt := map[string]string{
		// The dense LU is the test oracle internal/sparse is checked
		// against; shipping it in a program would defeat its purpose.
		"internal/dense": "test oracle of internal/sparse",
	}
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
