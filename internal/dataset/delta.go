package dataset

import (
	"fmt"
	"slices"

	"stablerank/internal/geom"
)

// DeltaOp names one kind of first-class dataset mutation.
type DeltaOp uint8

const (
	// ItemAdd appends a new item (the ID must not already exist).
	ItemAdd DeltaOp = iota + 1
	// ItemRemove deletes the item with the given ID; later items keep their
	// insertion order (their indices shift down by one).
	ItemRemove
	// AttrUpdate replaces the attribute vector of the item with the given ID.
	AttrUpdate
)

// String renders the op in the wire form the PATCH endpoint accepts.
func (op DeltaOp) String() string {
	switch op {
	case ItemAdd:
		return "add"
	case ItemRemove:
		return "remove"
	case AttrUpdate:
		return "update"
	}
	return fmt.Sprintf("DeltaOp(%d)", uint8(op))
}

// Delta is one dataset mutation, resolved by item ID (never by index: indices
// shift as deltas apply, IDs do not). Attrs is required for ItemAdd and
// AttrUpdate and must be ignored for ItemRemove.
type Delta struct {
	Op    DeltaOp
	ID    string
	Attrs geom.Vector
}

// Applied records how one delta resolved against the evolving dataset: the
// index the op acted on (the position updated or removed, or the position the
// new item was appended at) and a copy of the attribute vector it displaced
// (nil for ItemAdd). The drift score pass prices each delta from exactly this
// trace.
type Applied struct {
	Delta Delta
	Index int
	Prev  geom.Vector
}

// ApplyDeltas returns a new dataset with the deltas applied in order; ds
// itself is never modified. The result is identical — item order included —
// to a dataset built from scratch with the same final content, which is what
// lets incrementally maintained derived state be checked bit-for-bit against
// a full rebuild. Any invalid delta (unknown or duplicate ID, wrong
// dimension, non-finite attribute) fails the whole batch with no effect.
func ApplyDeltas(ds *Dataset, deltas ...Delta) (*Dataset, error) {
	out, _, err := ApplyDeltasTrace(ds, deltas...)
	return out, err
}

// ApplyDeltasTrace is ApplyDeltas returning the per-delta resolution trace.
// When the dataset contains duplicate IDs (CSV input does not forbid them),
// an ID resolves to its first remaining occurrence, so a batch gives the same
// result, or fails at the same delta, as its deltas applied one at a time.
func ApplyDeltasTrace(ds *Dataset, deltas ...Delta) (*Dataset, []Applied, error) {
	if ds == nil {
		return nil, nil, ErrEmptyDataset
	}
	out := ds.Clone()
	d := out.d
	index := make(map[string]int, out.N())
	for i := out.N() - 1; i >= 0; i-- {
		index[out.ids[i]] = i
	}
	trace := make([]Applied, 0, len(deltas))
	for k, dl := range deltas {
		idx, ok := index[dl.ID]
		switch dl.Op {
		case ItemAdd:
			if ok {
				return nil, nil, fmt.Errorf("dataset: delta %d adds duplicate item id %q", k, dl.ID)
			}
			if err := validAttrs(dl.ID, dl.Attrs, d); err != nil {
				return nil, nil, fmt.Errorf("dataset: delta %d: %w", k, err)
			}
			index[dl.ID] = out.N()
			trace = append(trace, Applied{Delta: dl, Index: out.N()})
			out.ids = append(out.ids, dl.ID)
			out.data = append(out.data, dl.Attrs...)
		case ItemRemove:
			if !ok {
				return nil, nil, fmt.Errorf("dataset: delta %d removes unknown item id %q", k, dl.ID)
			}
			trace = append(trace, Applied{Delta: dl, Index: idx, Prev: slices.Clone(out.Attrs(idx))})
			out.ids = slices.Delete(out.ids, idx, idx+1)
			out.data = slices.Delete(out.data, idx*d, (idx+1)*d)
			delete(index, dl.ID)
			for id, i := range index {
				if i > idx {
					index[id] = i - 1
				}
			}
			// A later duplicate of the removed ID becomes its first occurrence.
			if next := slices.Index(out.ids[idx:], dl.ID); next >= 0 {
				index[dl.ID] = idx + next
			}
		case AttrUpdate:
			if !ok {
				return nil, nil, fmt.Errorf("dataset: delta %d updates unknown item id %q", k, dl.ID)
			}
			if err := validAttrs(dl.ID, dl.Attrs, d); err != nil {
				return nil, nil, fmt.Errorf("dataset: delta %d: %w", k, err)
			}
			trace = append(trace, Applied{Delta: dl, Index: idx, Prev: slices.Clone(out.Attrs(idx))})
			copy(out.Attrs(idx), dl.Attrs)
		default:
			return nil, nil, fmt.Errorf("dataset: delta %d has unknown op %d", k, dl.Op)
		}
	}
	return out, trace, nil
}
