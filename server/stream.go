package server

import (
	"cmp"
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
	e, a, _, err := s.analyzerFor(cq)
	if err != nil {
		writeError(w, err)
		return
	}
	queries, err := cq.buildQueries(s, e.ds)
	if err != nil {
		writeError(w, err)
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Accel-Buffering", "no") // disable proxy buffering
	flusher, _ := w.(http.Flusher)
	rd := newRenderer(e.items())
	defer rd.release()

	count, mass := 0, 0.0
	truncated := false
	for res, err := range a.Stream(r.Context(), queries[0]) {
		if err == nil {
			// The cap is checked before emitting, so a stream that ends
			// exactly at MaxStreamRows by its own bound or exhaustion is not
			// marked truncated — only one the cap actually cut off.
			if count >= s.cfg.MaxStreamRows {
				truncated = true
				break
			}
			mass += res.Stable.Stability
			rd.reset()
			rd.streamLine(count+1, *res.Stable, mass)
			err = rd.err
		}
		if err != nil {
			// Before the first line the status code is still open: report
			// client hang-ups and real failures properly. Mid-stream, the
			// error goes in-band as the terminal line.
			if count == 0 {
				writeError(w, err)
				return
			}
			if !errors.Is(err, r.Context().Err()) {
				rd.reset()
				rd.streamError(err.Error())
				_, _ = w.Write(rd.b)
			}
			return
		}
		if _, err := w.Write(rd.b); err != nil {
			return // client went away mid-write
		}
		count++
		s.streamedRows.Add(1)
		if flusher != nil {
			flusher.Flush()
		}
	}
	rd.reset()
	rd.streamSummary(count, mass, truncated)
	_, _ = w.Write(rd.b)
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
