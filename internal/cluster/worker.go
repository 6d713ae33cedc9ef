package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"

	"stablerank/internal/mc"
)

// The fill worker: the remote end of the chunk-fill protocol. A worker is
// stateless and dataset-free — pool samples are weight-space draws, so all a
// worker needs is the region spec, the seed, and which chunks to compute.
// Any stablerankd node can serve as a fill worker (the endpoint is mounted
// on every node), and cmd/stablerankd's -worker mode runs ONLY this.

// FillRequest is the POST /cluster/v1/fill body: compute the listed chunks
// of a Total-sample pool drawn from Region with Seed. Chunk contents depend
// on nothing else; unknown fields, such as the "dataset_hash" older
// coordinators send, are ignored.
type FillRequest struct {
	Region RegionSpec `json:"region"`
	Seed   int64      `json:"seed"`
	Total  int        `json:"total"`
	Chunks []int      `json:"chunks"`
}

// Validate checks the request's internal consistency against the worker's
// sample-count bound.
func (fr FillRequest) Validate(maxSamples int) error {
	if fr.Total < 1 || (maxSamples > 0 && fr.Total > maxSamples) {
		return fmt.Errorf("total %d out of range [1, %d]", fr.Total, maxSamples)
	}
	if _, err := fr.Region.Region(); err != nil {
		return err
	}
	n := mc.Chunks(fr.Total)
	if len(fr.Chunks) == 0 || len(fr.Chunks) > n {
		return fmt.Errorf("chunk list has %d entries, want 1..%d", len(fr.Chunks), n)
	}
	for _, c := range fr.Chunks {
		if c < 0 || c >= n {
			return fmt.Errorf("chunk %d out of range [0, %d)", c, n)
		}
	}
	return nil
}

// WorkerStats is a point-in-time snapshot of a fill worker's counters.
type WorkerStats struct {
	Requests     int64 `json:"requests"`
	ChunksServed int64 `json:"chunks_served"`
	RowsServed   int64 `json:"rows_served"`
	Rejected     int64 `json:"rejected"`
}

// Worker serves the chunk-fill protocol over HTTP.
type Worker struct {
	// MaxSamples rejects fill requests for pools beyond this bound
	// (0 = the 2,000,000 default, matching the server's MaxSampleCount).
	MaxSamples int
	// Logf receives one line per rejected request; nil disables logging.
	Logf func(format string, args ...any)

	requests     atomic.Int64
	chunksServed atomic.Int64
	rowsServed   atomic.Int64
	rejected     atomic.Int64
}

// Stats returns the worker's counters.
func (wk *Worker) Stats() WorkerStats {
	return WorkerStats{
		Requests:     wk.requests.Load(),
		ChunksServed: wk.chunksServed.Load(),
		RowsServed:   wk.rowsServed.Load(),
		Rejected:     wk.rejected.Load(),
	}
}

// Handler returns the worker's HTTP surface:
//
//	GET  /cluster/v1/ping  liveness (JSON)
//	POST /cluster/v1/fill  chunk fill (length-prefixed binary frames)
func (wk *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /cluster/v1/ping", wk.handlePing)
	mux.HandleFunc("POST /cluster/v1/fill", wk.handleFill)
	return mux
}

func (wk *Worker) logf(format string, args ...any) {
	if wk.Logf != nil {
		wk.Logf(format, args...)
	}
}

func (wk *Worker) handlePing(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write([]byte(`{"status":"ok","role":"fill-worker"}` + "\n"))
}

// handleFill computes the requested chunks and streams them back as
// length-prefixed frames, flushing after each so the coordinator splices
// chunks as they arrive. A fill error mid-stream simply ends the response
// early: the coordinator detects the short stream and re-fills the missing
// chunks locally — bit-identically, per the determinism contract.
func (wk *Worker) handleFill(w http.ResponseWriter, r *http.Request) {
	wk.requests.Add(1)
	var req FillRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(&req); err != nil {
		wk.reject(w, http.StatusBadRequest, "decoding fill request: %v", err)
		return
	}
	maxSamples := wk.MaxSamples
	if maxSamples <= 0 {
		maxSamples = 2_000_000
	}
	if err := req.Validate(maxSamples); err != nil {
		wk.reject(w, http.StatusBadRequest, "fill request: %v", err)
		return
	}
	region, err := req.Region.Region()
	if err != nil {
		wk.reject(w, http.StatusBadRequest, "fill region: %v", err)
		return
	}
	factory := mc.ConeSamplers(region, req.Seed)
	w.Header().Set("Content-Type", "application/octet-stream")
	flusher, _ := w.(http.Flusher)
	ctx := r.Context()
	for _, chunk := range req.Chunks {
		lo, hi := mc.ChunkRange(chunk, req.Total)
		rows, err := mc.FillChunk(ctx, factory, chunk, req.Total, req.Region.D)
		if err != nil {
			wk.logf("cluster worker: filling chunk %d of %d-sample pool: %v", chunk, req.Total, err)
			return
		}
		if err := WriteChunk(w, Chunk{Index: chunk, Lo: lo, Hi: hi, Rows: rows}); err != nil {
			return // coordinator went away; nothing useful left to do
		}
		wk.chunksServed.Add(1)
		wk.rowsServed.Add(int64(hi - lo))
		if flusher != nil {
			flusher.Flush()
		}
	}
}

func (wk *Worker) reject(w http.ResponseWriter, code int, format string, args ...any) {
	wk.rejected.Add(1)
	msg := fmt.Sprintf(format, args...)
	wk.logf("cluster worker: %s", msg)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
