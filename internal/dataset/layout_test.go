package dataset_test

import (
	"bytes"
	"math/rand"
	"testing"

	"stablerank/internal/datagen"
	"stablerank/internal/dataset"
	"stablerank/internal/geom"
)

// TestHashPinned pins Hash to fixed values: snapshot keys embed it, so a
// change to how a dataset stores its attributes must not move it.
func TestHashPinned(t *testing.T) {
	for name, c := range map[string]struct {
		ds   *dataset.Dataset
		want uint64
	}{
		"Figure1":        {dataset.Figure1(), 0x0d52b1931f6cca14},
		"FIFA(1,300)":    {datagen.FIFA(rand.New(rand.NewSource(1)), 300), 0x755cfdab2329c34a},
		"Independent(7)": {datagen.Independent(rand.New(rand.NewSource(7)), 1000, 4), 0x2eb2a1ff5daaf763},
	} {
		if got := c.ds.Hash(); got != c.want {
			t.Errorf("%s: Hash = %#016x, want %#016x", name, got, c.want)
		}
	}
}

// requireMatrixRows asserts that Matrix() is the n x d table whose row i is
// Attrs(i), value for value.
func requireMatrixRows(t *testing.T, name string, ds *dataset.Dataset) {
	t.Helper()
	m := ds.Matrix()
	if m.Rows() != ds.N() || m.Stride() != ds.D() {
		t.Fatalf("%s: Matrix is %dx%d, dataset %dx%d", name, m.Rows(), m.Stride(), ds.N(), ds.D())
	}
	for i := 0; i < ds.N(); i++ {
		if !geom.Vector(m.Row(i)).Equal(ds.Attrs(i), 0) || !ds.Item(i).Attrs.Equal(ds.Attrs(i), 0) {
			t.Fatalf("%s: row %d = %v, Attrs = %v", name, i, m.Row(i), ds.Attrs(i))
		}
	}
}

// TestMatrixMatchesAttrs checks Matrix against Attrs for a dataset from every
// constructor.
func TestMatrixMatchesAttrs(t *testing.T) {
	src := dataset.MustNew(3)
	src.MustAdd("a", 1, 2, 3)
	src.MustAdd("b", 4, 0, 6)
	src.MustAdd("c", 7, 8, 1)
	src.MustAdd("b", 2, 5, 5)
	requireMatrixRows(t, "Add", src)

	var buf bytes.Buffer
	if err := src.WriteCSV(&buf, true); err != nil {
		t.Fatal(err)
	}
	parsed, err := dataset.ReadCSV(&buf, true)
	if err != nil {
		t.Fatal(err)
	}
	requireMatrixRows(t, "ReadCSV", parsed)
	requireMatrixRows(t, "Clone", src.Clone())
	derive := map[string]func() (*dataset.Dataset, error){
		"Project":     func() (*dataset.Dataset, error) { return src.Project(2) },
		"Head":        func() (*dataset.Dataset, error) { return src.Head(2) },
		"Normalize":   func() (*dataset.Dataset, error) { return src.Normalize(nil) },
		"Standardize": src.Standardize,
		"ApplyDeltas": func() (*dataset.Dataset, error) {
			return dataset.ApplyDeltas(src,
				dataset.Delta{Op: dataset.AttrUpdate, ID: "c", Attrs: geom.Vector{9, 9, 9}},
				dataset.Delta{Op: dataset.ItemRemove, ID: "a"},
				dataset.Delta{Op: dataset.ItemAdd, ID: "d", Attrs: geom.Vector{0, 1, 0}})
		},
	}
	for name, f := range derive {
		ds, err := f()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		requireMatrixRows(t, name, ds)
	}
	requireMatrixRows(t, "empty", dataset.MustNew(2))
}

// TestDerivedWritesStayLocal checks that a clone or a derived dataset owns
// its attribute table: writing through its rows, or adding to it, never
// shows in the source.
func TestDerivedWritesStayLocal(t *testing.T) {
	src := dataset.Figure1()
	want := src.Hash()
	head, err := src.Head(2)
	if err != nil {
		t.Fatal(err)
	}
	head.MustAdd("t6", 0.1, 0.2)
	head.MustAdd("t7", 0.3, 0.4)
	if head.N() != 4 || head.Item(2).ID != "t6" {
		t.Fatalf("Add on a Head: %d items", head.N())
	}
	derived := []*dataset.Dataset{src.Clone(), head}
	for _, f := range []func() (*dataset.Dataset, error){
		func() (*dataset.Dataset, error) { return src.Project(1) },
		func() (*dataset.Dataset, error) { return src.Normalize(nil) },
		src.Standardize,
		func() (*dataset.Dataset, error) {
			return dataset.ApplyDeltas(src, dataset.Delta{Op: dataset.ItemAdd, ID: "t6", Attrs: geom.Vector{1, 1}})
		},
	} {
		ds, err := f()
		if err != nil {
			t.Fatal(err)
		}
		derived = append(derived, ds)
	}
	for _, ds := range derived {
		for i := 0; i < ds.N(); i++ {
			ds.Attrs(i)[0] = 42
		}
	}
	if got := src.Hash(); got != want {
		t.Fatalf("source changed: hash %#016x, want %#016x", got, want)
	}
	// A row view's capacity is pinned: appending to it copies.
	row := append(src.Attrs(0), 99)
	row[0] = 42
	if src.Hash() != want || src.Attrs(1)[0] != 0.83 {
		t.Fatal("append to a row view wrote into the table")
	}
}
