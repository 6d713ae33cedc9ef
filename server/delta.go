package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"

	"stablerank"
)

// PATCH /v1/datasets/{name}: mutate a registered dataset in place with a JSON
// delta list, keeping resident analyzers' sample pools instead of
// rebuilding them.
//
//	{"deltas": [
//	  {"op": "update", "id": "x12", "attrs": [0.3, 0.7]},
//	  {"op": "add",    "id": "x99", "attrs": [0.1, 0.2]},
//	  {"op": "remove", "id": "x04"}
//	]}
//
// The batch is atomic: one invalid op (unknown or duplicate ID, wrong
// dimension, non-finite attribute) rejects the whole request and nothing
// changes. On success the dataset's version is bumped, the response cache
// drops only this dataset's entries, and the drift of each delta is
// published to GET /v1/{dataset}/drift subscribers. No analyzer is touched:
// the next read of each resident key answers through an Over view of its
// analyzer over the mutated dataset, on the same Monte-Carlo pool (pool
// samples are weight-space points, independent of dataset content).

// maxDeltaOps bounds one PATCH's delta list; batches beyond it are rejected
// before any dataset work happens.
const maxDeltaOps = 10_000

// deltaOpJSON is one delta on the wire.
type deltaOpJSON struct {
	Op    string    `json:"op"`
	ID    string    `json:"id"`
	Attrs []float64 `json:"attrs,omitempty"`
}

// deltaRequest is the PATCH body.
type deltaRequest struct {
	Deltas []deltaOpJSON `json:"deltas"`
}

// decodeDeltas parses and validates a PATCH body against dimension d. It is
// the fuzzed surface between untrusted JSON and the delta machinery, so every
// structural rule is enforced here: known ops only, non-empty IDs, attrs
// present with exactly d finite values for add/update and absent for remove.
// (Duplicate-ID rules depend on the evolving dataset and are enforced by
// stablerank.ApplyDeltas.)
func decodeDeltas(data []byte, d, maxOps int) ([]stablerank.Delta, error) {
	var req deltaRequest
	trailing, err := decodeBody(data, &req)
	if err != nil {
		return nil, fmt.Errorf("bad delta body: %v", err)
	}
	if trailing {
		return nil, errors.New("bad delta body: trailing data after the delta object")
	}
	if len(req.Deltas) == 0 {
		return nil, errors.New("delta body has no deltas")
	}
	if len(req.Deltas) > maxOps {
		return nil, fmt.Errorf("delta body has %d ops, limit is %d", len(req.Deltas), maxOps)
	}
	out := make([]stablerank.Delta, len(req.Deltas))
	for i, op := range req.Deltas {
		if op.ID == "" {
			return nil, fmt.Errorf("delta %d: missing id", i)
		}
		var kind stablerank.DeltaOp
		switch op.Op {
		case "add":
			kind = stablerank.ItemAdd
		case "remove":
			kind = stablerank.ItemRemove
		case "update":
			kind = stablerank.AttrUpdate
		default:
			return nil, fmt.Errorf("delta %d: op must be add, remove or update, got %q", i, op.Op)
		}
		if kind == stablerank.ItemRemove {
			if len(op.Attrs) != 0 {
				return nil, fmt.Errorf("delta %d: remove takes no attrs", i)
			}
		} else {
			if len(op.Attrs) != d {
				return nil, fmt.Errorf("delta %d: attrs has %d values, dataset dimension is %d", i, len(op.Attrs), d)
			}
			for j, v := range op.Attrs {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return nil, fmt.Errorf("delta %d: attrs[%d] is not finite", i, j)
				}
			}
		}
		out[i] = stablerank.Delta{Op: kind, ID: op.ID, Attrs: append([]float64(nil), op.Attrs...)}
	}
	return out, nil
}

// deltaResponse is the PATCH response: the dataset's new identity plus an
// accounting of the cached responses the deltas invalidated.
type deltaResponse struct {
	Dataset          string `json:"dataset"`
	N                int    `json:"n"`
	D                int    `json:"d"`
	Generation       int64  `json:"generation"`
	Version          int64  `json:"version"`
	Applied          int    `json:"applied"`
	CacheInvalidated int    `json:"cache_invalidated"`
	CacheSurvived    int    `json:"cache_survived"`
}

// handlePatchDataset is PATCH /v1/datasets/{name}.
func (s *Server) handlePatchDataset(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, statusError{
				code: http.StatusRequestEntityTooLarge,
				msg:  fmt.Sprintf("delta body exceeds the %d-byte upload limit", s.cfg.MaxUploadBytes),
			})
			return
		}
		writeError(w, errBadRequest("reading delta body: %v", err))
		return
	}
	// In a cluster, each dataset's deltas serialize at one replica: the ring
	// owner of the dataset name (registries are node-local, so ownership is a
	// write-serialization point, not replication). The forwarded marker keeps
	// the hop from looping, and an unreachable owner degrades to applying
	// locally, same as query routing.
	if s.forward(w, r, "dataset:"+name, body) {
		return
	}
	ds, _, _, ok := s.registry.Get(name)
	if !ok {
		writeError(w, errNotFound("unknown dataset %q", name))
		return
	}
	deltas, err := decodeDeltas(body, ds.D(), maxDeltaOps)
	if err != nil {
		writeError(w, errBadRequest("%v", err))
		return
	}
	resp, err := s.applyDeltas(name, deltas)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// applyDeltas moves the whole server to the post-delta dataset as one unit:
// registry version bump, per-dataset cache invalidation, and counters.
// deltaMu serializes concurrent PATCHes so two batches can never interleave
// them. Drift is priced after the lock is released — LastDrift sweeps the
// whole pool, and holding deltaMu for that would block every PATCH to every
// dataset for the duration.
func (s *Server) applyDeltas(name string, deltas []stablerank.Delta) (deltaResponse, error) {
	s.deltaMu.Lock()
	oldDS, _, _, ok := s.registry.Get(name)
	if !ok {
		s.deltaMu.Unlock()
		return deltaResponse{}, errNotFound("unknown dataset %q", name)
	}
	ds, gen, ver, err := s.registry.ApplyDeltas(name, deltas)
	if err != nil {
		s.deltaMu.Unlock()
		return deltaResponse{}, errBadRequest("applying deltas: %v", err)
	}
	removed, survived := s.cache.invalidateDataset(name)

	s.deltasApplied.Add(int64(len(deltas)))
	s.cacheInvalidated.Add(int64(removed))
	s.cacheSurvivals.Add(int64(survived))
	s.deltaMu.Unlock()

	if s.drift.hasSubscribers(name) {
		s.publishDrift(name, gen, ver, oldDS, deltas)
	}
	return deltaResponse{
		Dataset:          name,
		N:                ds.N(),
		D:                ds.D(),
		Generation:       gen,
		Version:          ver,
		Applied:          len(deltas),
		CacheInvalidated: removed,
		CacheSurvived:    survived,
	}, nil
}

// publishDrift prices the batch's stability drift and fans it out to the
// dataset's drift subscribers. It runs before the PATCH response is written,
// so a PATCH with subscribers waits for it. When the analyzer cache holds a
// drift source (analyzerPool.driftSource: a full-space analyzer with an
// already built pool, selected deterministically), its Over view of the
// pre-PATCH dataset applies the batch, so LastDrift never draws a pool here
// and the published numbers have stable semantics; with none resident, a
// throwaway DriftSamples-row pool prices the batch instead. Either way the
// rank pass covers DriftSamples pool rows: about 10 ms of a one-delta PATCH
// at n=1000, d=4 on two cores (BenchmarkLastDrift).
func (s *Server) publishDrift(name string, gen, ver int64, oldDS *stablerank.Dataset, deltas []stablerank.Delta) {
	ctx := context.Background() //srlint:ctxflow drift is priced before the PATCH response is written, but for the subscribers: the patching client's hang-up or deadline must not cancel published numbers
	var (
		drifts []stablerank.Drift
		err    error
	)
	src := s.analyzers.driftSource(name, oldDS.D())
	if src == nil {
		drifts, err = stablerank.DriftOf(ctx, oldDS, deltas, s.cfg.DefaultSeed, s.cfg.DriftSamples, s.cfg.DriftSamples)
	} else if src, err = src.Over(oldDS); err == nil {
		if src, err = src.ApplyDelta(ctx, deltas...); err == nil {
			drifts, err = src.LastDrift(ctx, s.cfg.DriftSamples)
		}
	}
	if err != nil {
		s.logf("stablerankd: measuring drift for dataset %q: %v", name, err)
		return
	}
	events := make([]driftEvent, len(drifts))
	for i, d := range drifts {
		events[i] = driftEvent{
			Dataset:          name,
			Generation:       gen,
			Version:          ver,
			Op:               d.Op.String(),
			ID:               d.ID,
			PoolRows:         d.PoolRows,
			MeanScoreDelta:   d.MeanScoreDelta,
			MaxAbsScoreDelta: d.MaxAbsScoreDelta,
			RankRows:         d.Shift.Rows,
			RankChanged:      d.Shift.Changed,
			MeanRankBefore:   d.Shift.MeanBefore,
			MeanRankAfter:    d.Shift.MeanAfter,
			MeanAbsRankShift: d.Shift.MeanAbsShift,
			MaxAbsRankShift:  d.Shift.MaxAbsShift,
			RankImproved:     d.Shift.Improved,
			RankWorsened:     d.Shift.Worsened,
		}
	}
	s.drift.publish(name, events)
}

// deltaStats is the /statsz "deltas" section.
func (s *Server) deltaStats() map[string]any {
	return map[string]any{
		"applied":           s.deltasApplied.Load(),
		"cache_invalidated": s.cacheInvalidated.Load(),
		"cache_survivals":   s.cacheSurvivals.Load(),
		"drift_events":      s.drift.events.Load(),
		"drift_dropped":     s.drift.dropped.Load(),
		"drift_streamed":    s.drift.streamed.Load(),
	}
}
