package detrange

import (
	"go/build"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stablerank/internal/lint/linttest"
)

func TestDetrange(t *testing.T) {
	linttest.Run(t, "testdata/src/a", New("*"))
}

// TestDriftPickRegression pins the PR 9 review bug (fixed in ae926f8) as a
// permanent fixture: selecting the drift analyzer by map-iteration order
// must be flagged, and the sorted-smallest-key fix must pass clean.
func TestDriftPickRegression(t *testing.T) {
	linttest.Run(t, "testdata/src/driftpick", New("*"))
}

// TestPackageScope: outside the determinism-critical package list the
// analyzer stays silent, so the rest of the tree can use maps freely.
func TestPackageScope(t *testing.T) {
	linttest.Run(t, "testdata/src/scoped", New("some/other/pkg"))
}

// TestDefaultPackagesExist: the package filter is an exact path match, so an
// entry naming a moved or deleted package would silently drop out of the
// determinism lint. Every DefaultPackages entry must name a package with Go
// files in this module.
func TestDefaultPackagesExist(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", "..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		t.Fatal(err)
	}
	const module = "stablerank"
	if !strings.HasPrefix(string(gomod), "module "+module+"\n") {
		t.Fatalf("%s/go.mod does not declare module %s", root, module)
	}
	for _, pkg := range DefaultPackages {
		rel, ok := strings.CutPrefix(pkg, module)
		if !ok || rel != "" && rel[0] != '/' {
			t.Errorf("%s is outside module %s", pkg, module)
			continue
		}
		if _, err := build.ImportDir(filepath.Join(root, filepath.FromSlash(rel)), 0); err != nil {
			t.Errorf("%s names no package of the module: %v", pkg, err)
		}
	}
}
