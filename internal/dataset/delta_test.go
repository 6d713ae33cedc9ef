package dataset

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"stablerank/internal/geom"
)

func deltaTestDS(t *testing.T, n int) *Dataset {
	t.Helper()
	ds := MustNew(2)
	for i := 0; i < n; i++ {
		if err := ds.Add(fmt.Sprintf("i%d", i), geom.NewVector(float64(i), float64(n-i))); err != nil {
			t.Fatal(err)
		}
	}
	return ds
}

func TestApplyDeltasTrace(t *testing.T) {
	ds := deltaTestDS(t, 4)
	out, trace, err := ApplyDeltasTrace(ds,
		Delta{Op: AttrUpdate, ID: "i1", Attrs: geom.NewVector(9, 9)},
		Delta{Op: ItemRemove, ID: "i0"},
		Delta{Op: ItemAdd, ID: "new", Attrs: geom.NewVector(5, 5)},
	)
	if err != nil {
		t.Fatal(err)
	}
	if ds.N() != 4 {
		t.Fatalf("original mutated: n=%d", ds.N())
	}
	if out.N() != 4 {
		t.Fatalf("result n=%d, want 4", out.N())
	}
	// Update resolved at index 1, remove at 0, add appended at index 3 (after
	// the removal shifted everything down).
	if trace[0].Index != 1 || trace[1].Index != 0 || trace[2].Index != 3 {
		t.Fatalf("trace indices %d,%d,%d", trace[0].Index, trace[1].Index, trace[2].Index)
	}
	if trace[0].Prev == nil || trace[1].Prev == nil || trace[2].Prev != nil {
		t.Fatalf("trace prevs %v", trace)
	}
	if got := out.Item(0).ID; got != "i1" {
		t.Fatalf("item 0 = %q, want i1", got)
	}
	if got := out.Item(0).Attrs; got[0] != 9 || got[1] != 9 {
		t.Fatalf("update not applied: %v", got)
	}
	if got := out.Item(3).ID; got != "new" {
		t.Fatalf("item 3 = %q, want new", got)
	}
	// The result must equal a dataset built from scratch with the same
	// content — item order included.
	want := MustNew(2)
	for i := 0; i < out.N(); i++ {
		it := out.Item(i)
		if err := want.Add(it.ID, it.Attrs); err != nil {
			t.Fatal(err)
		}
	}
	if out.Hash() != want.Hash() {
		t.Fatal("delta result differs from from-scratch dataset")
	}
}

func TestApplyDeltasErrors(t *testing.T) {
	ds := deltaTestDS(t, 3)
	cases := []struct {
		name  string
		delta Delta
		want  string
	}{
		{"duplicate add", Delta{Op: ItemAdd, ID: "i0", Attrs: geom.NewVector(1, 1)}, "duplicate"},
		{"unknown remove", Delta{Op: ItemRemove, ID: "nope"}, "unknown"},
		{"unknown update", Delta{Op: AttrUpdate, ID: "nope", Attrs: geom.NewVector(1, 1)}, "unknown"},
		{"wrong dim", Delta{Op: AttrUpdate, ID: "i0", Attrs: geom.NewVector(1)}, "attributes"},
		{"nan attr", Delta{Op: AttrUpdate, ID: "i0", Attrs: geom.NewVector(1, math.NaN())}, "finite"},
		{"inf attr", Delta{Op: ItemAdd, ID: "x", Attrs: geom.NewVector(1, math.Inf(1))}, "finite"},
		{"bad op", Delta{Op: 0, ID: "i0"}, "unknown op"},
	}
	for _, tc := range cases {
		if _, err := ApplyDeltas(ds, tc.delta); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err=%v, want containing %q", tc.name, err, tc.want)
		}
	}
	// A failing batch must leave no partial effect observable.
	if _, err := ApplyDeltas(ds, Delta{Op: ItemRemove, ID: "i2"}, Delta{Op: ItemRemove, ID: "i2"}); err == nil {
		t.Fatal("double remove should fail")
	}
	if ds.N() != 3 {
		t.Fatalf("failed batch mutated input: n=%d", ds.N())
	}
}

func TestDeltaOpString(t *testing.T) {
	if ItemAdd.String() != "add" || ItemRemove.String() != "remove" || AttrUpdate.String() != "update" {
		t.Fatal("op strings drifted from the PATCH wire format")
	}
	if !strings.Contains(DeltaOp(99).String(), "99") {
		t.Fatal("unknown op string should include the value")
	}
}

// TestApplyDeltasTracePrev pins Applied.Prev to the vector each delta
// displaced, also when a later delta of the same batch overwrites that row
// or shifts it by removing an earlier item.
func TestApplyDeltasTracePrev(t *testing.T) {
	ds := deltaTestDS(t, 4) // i0 (0,4), i1 (1,3), i2 (2,2), i3 (3,1)
	_, trace, err := ApplyDeltasTrace(ds,
		Delta{Op: AttrUpdate, ID: "i2", Attrs: geom.NewVector(7, 7)},
		Delta{Op: AttrUpdate, ID: "i2", Attrs: geom.NewVector(8, 8)},
		Delta{Op: AttrUpdate, ID: "i3", Attrs: geom.NewVector(5, 5)},
		Delta{Op: ItemRemove, ID: "i1"},
	)
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range []geom.Vector{{2, 2}, {7, 7}, {3, 1}, {1, 3}} {
		if !trace[k].Prev.Equal(want, 0) {
			t.Errorf("trace[%d].Prev = %v, want %v", k, trace[k].Prev, want)
		}
	}
}

// TestDuplicateIDBatchMatchesSteps checks, on datasets with duplicate IDs,
// that a batch of deltas gives the same dataset as applying them one at a
// time, or fails at the same delta with the same error.
func TestDuplicateIDBatchMatchesSteps(t *testing.T) {
	ids := []string{"x", "y", "z"}
	ops := []DeltaOp{ItemAdd, ItemRemove, AttrUpdate}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 2000; trial++ {
		ds := MustNew(2)
		for i, n := 0, 1+rng.Intn(5); i < n; i++ {
			ds.MustAdd(ids[rng.Intn(len(ids))], float64(i), float64(trial))
		}
		deltas := make([]Delta, 1+rng.Intn(4))
		for k := range deltas {
			deltas[k] = Delta{Op: ops[rng.Intn(len(ops))], ID: ids[rng.Intn(len(ids))], Attrs: geom.NewVector(float64(k), -1)}
		}
		batch, berr := ApplyDeltas(ds, deltas...)
		step, serr := ds, error(nil)
		for k, dl := range deltas {
			next, err := ApplyDeltas(step, dl)
			if err != nil {
				serr = errors.New(strings.Replace(err.Error(), "delta 0", fmt.Sprintf("delta %d", k), 1))
				break
			}
			step = next
		}
		switch {
		case (berr == nil) != (serr == nil):
			t.Fatalf("trial %d %v: batch err %v, one at a time err %v", trial, deltas, berr, serr)
		case berr != nil && berr.Error() != serr.Error():
			t.Fatalf("trial %d %v: batch err %q, one at a time err %q", trial, deltas, berr, serr)
		case berr == nil && batch.Hash() != step.Hash():
			t.Fatalf("trial %d %v: batch and one at a time differ", trial, deltas)
		}
	}
}
