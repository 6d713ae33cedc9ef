package server

import (
	"cmp"
	"encoding/json"
	"errors"
	"net/http"
	"net/url"
)

// GET /v1/query/stream: incremental enumeration as NDJSON. One line per
// ranking, in decreasing stability, each carrying the running cumulative
// stability mass and the per-ranking confidence error, flushed as produced —
// so a client watching a long enumeration sees results immediately and can
// simply close the connection to stop the work (the request context cancels
// the enumerator promptly). A closing summary line reports the total.
//
// Parameters: ?dataset= (required) plus the shared region/seed/samples
// parameters, and one of
//
//	?op=enumerate[&limit=N]   the N (default: all, capped) most stable rankings
//	?op=toph&h=N              exactly N rankings
//	?op=above&s=T             rankings with stability >= T
//
// The stream never emits more than MaxStreamRows lines; the summary line's
// "truncated" field reports whether the cap (rather than exhaustion or the
// query's own bound) ended it.

// streamLine is one enumerated ranking on the wire.
type streamLine struct {
	Rank            int       `json:"rank"`
	Stability       float64   `json:"stability"`
	ConfidenceError float64   `json:"confidence_error,omitempty"`
	Cumulative      float64   `json:"cumulative_stability"`
	Exact           bool      `json:"exact,omitempty"`
	Items           []itemRef `json:"items"`
	Weights         []float64 `json:"weights,omitempty"`
}

// streamSummary is the final NDJSON line.
type streamSummary struct {
	Done       bool    `json:"done"`
	Count      int     `json:"count"`
	Cumulative float64 `json:"cumulative_stability"`
	Truncated  bool    `json:"truncated"`
}

// streamError is the terminal line of a failed stream; once rows have been
// flushed the status code is already written, so mid-stream failures are
// reported in-band.
type streamError struct {
	Error string `json:"error"`
}

// handleQueryStream is GET /v1/query/stream: the URL decodes into a
// one-operation query request that runs through the query pipeline, and
// the operation's rankings are written as they are enumerated. Streams are
// node-local and uncached.
func (s *Server) handleQueryStream(w http.ResponseWriter, r *http.Request) {
	req, err := s.streamRequest(r.URL.Query())
	if err != nil {
		writeError(w, err)
		return
	}
	cq, _, err := s.compileRequest(req, s.streamLimits())
	if err != nil {
		writeError(w, err)
		return
	}
	ds, a, _, err := s.analyzerFor(cq)
	if err != nil {
		writeError(w, err)
		return
	}
	queries, err := cq.buildQueries(s, ds)
	if err != nil {
		writeError(w, err)
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Accel-Buffering", "no") // disable proxy buffering
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)

	count, mass := 0, 0.0
	truncated := false
	for res, err := range a.Stream(r.Context(), queries[0]) {
		if err != nil {
			// Before the first line the status code is still open: report
			// client hang-ups and real failures properly. Mid-stream, the
			// error goes in-band as the terminal line.
			if count == 0 {
				writeError(w, err)
				return
			}
			if !errors.Is(err, r.Context().Err()) {
				_ = enc.Encode(streamError{Error: err.Error()})
			}
			return
		}
		// The cap is checked before emitting, so a stream that ends exactly
		// at MaxStreamRows by its own bound or exhaustion is not marked
		// truncated — only one the cap actually cut off.
		if count >= s.cfg.MaxStreamRows {
			truncated = true
			break
		}
		st := res.Stable
		count++
		mass += st.Stability
		line := streamLine{
			Rank:            count,
			Stability:       st.Stability,
			ConfidenceError: st.ConfidenceError,
			Cumulative:      mass,
			Exact:           st.Exact,
			Items:           s.itemRefs(ds, st.Ranking.Order),
			Weights:         st.Weights,
		}
		if err := enc.Encode(line); err != nil {
			return // client went away mid-write
		}
		s.streamedRows.Add(1)
		if flusher != nil {
			flusher.Flush()
		}
	}
	_ = enc.Encode(streamSummary{Done: true, Count: count, Cumulative: mass, Truncated: truncated})
	if flusher != nil {
		flusher.Flush()
	}
}

// streamRequest decodes the stream URL into a one-operation query request:
// ?dataset= plus the region, seed and samples parameters, and ?op= with its
// bound (?limit= for enumerate, the default op, where 0 means open).
func (s *Server) streamRequest(q url.Values) (*queryRequest, error) {
	req, err := s.urlRequest(q, q.Get("dataset"))
	if err != nil {
		return nil, err
	}
	spec, err := enumOp(q, cmp.Or(q.Get("op"), "enumerate"), s.cfg.MaxStreamRows)
	if err != nil {
		return nil, err
	}
	req.Queries = []querySpec{spec}
	return req, nil
}
