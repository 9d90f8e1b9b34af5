package repro_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestNightlyFuzzMatrix: the nightly workflow fuzzes every fuzz target
// in the module, each in its own package, and names no target that does
// not exist — a new Fuzz function cannot go without its nightly run.
func TestNightlyFuzzMatrix(t *testing.T) {
	wf, err := os.ReadFile(".github/workflows/nightly.yml")
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, m := range regexp.MustCompile(`\{ target: (\w+), pkg: (\S+) \}`).FindAllStringSubmatch(string(wf), -1) {
		listed[m[1]+" "+m[2]] = true
	}
	if len(listed) == 0 {
		t.Fatal("no fuzz targets found in the nightly matrix")
	}
	fuzzFunc := regexp.MustCompile(`(?m)^func (Fuzz\w+)\(`)
	found := map[string]bool{}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// Hidden and build directories, testdata, and the benchmark's
			// own module hold no targets of this module.
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata" || name == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		pkg := "./" + filepath.ToSlash(filepath.Dir(path))
		if pkg == "./." {
			pkg = "."
		}
		for _, m := range fuzzFunc.FindAllStringSubmatch(string(src), -1) {
			found[m[1]+" "+pkg] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for target := range found {
		if !listed[target] {
			t.Errorf("fuzz target %s is missing from nightly.yml's matrix", target)
		}
	}
	for target := range listed {
		if !found[target] {
			t.Errorf("nightly.yml's matrix names %s, which does not exist", target)
		}
	}
}
