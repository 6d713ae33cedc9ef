package server

import (
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"
)

// GET /v1/{dataset}/drift: a live NDJSON feed of stability drift. Every
// PATCH to the dataset publishes one line per applied delta describing how
// the touched item's score and rank moved across the Monte-Carlo pool — the
// "how much did this mutation destabilize the ranking" signal, measured on
// the same weight-space samples the stability queries integrate over. The
// stream opens with a hello line carrying the dataset's current identity and
// stays up until the client disconnects: it is the one endpoint the
// per-request deadline (Config.RequestTimeout) does not end.

// driftEvent is one applied delta's drift measurement on the wire.
type driftEvent struct {
	Dataset          string  `json:"dataset"`
	Generation       int64   `json:"generation"`
	Version          int64   `json:"version"`
	Op               string  `json:"op"`
	ID               string  `json:"id"`
	PoolRows         int     `json:"pool_rows"`
	MeanScoreDelta   float64 `json:"mean_score_delta"`
	MaxAbsScoreDelta float64 `json:"max_abs_score_delta"`
	RankRows         int     `json:"rank_rows"`
	RankChanged      int     `json:"rank_changed"`
	MeanRankBefore   float64 `json:"mean_rank_before"`
	MeanRankAfter    float64 `json:"mean_rank_after"`
	MeanAbsRankShift float64 `json:"mean_abs_rank_shift"`
	MaxAbsRankShift  int     `json:"max_abs_rank_shift"`
	RankImproved     int     `json:"rank_improved"`
	RankWorsened     int     `json:"rank_worsened"`
}

// driftHello is the first NDJSON line of a drift stream.
type driftHello struct {
	Dataset    string `json:"dataset"`
	N          int    `json:"n"`
	D          int    `json:"d"`
	Generation int64  `json:"generation"`
	Version    int64  `json:"version"`
	Streaming  bool   `json:"streaming"`
}

// driftChanCap buffers per-subscriber events; a subscriber this far behind a
// burst of PATCHes loses the overflow (counted) rather than stalling writers.
const driftChanCap = 16

// driftHub fans drift events out to per-dataset subscribers. Publishing never
// blocks: PATCH handling must not be hostage to a slow stream reader.
type driftHub struct {
	mu   sync.Mutex
	subs map[string]map[chan driftEvent]struct{} // guarded by mu

	events   atomic.Int64 // events published (per delta, not per PATCH)
	dropped  atomic.Int64 // events lost to full subscriber buffers
	streamed atomic.Int64 // NDJSON lines actually written to clients
}

func newDriftHub() *driftHub {
	return &driftHub{subs: make(map[string]map[chan driftEvent]struct{})}
}

// subscribe registers a new drift listener for the named dataset.
func (h *driftHub) subscribe(name string) chan driftEvent {
	ch := make(chan driftEvent, driftChanCap)
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.subs[name] == nil {
		h.subs[name] = make(map[chan driftEvent]struct{})
	}
	h.subs[name][ch] = struct{}{}
	return ch
}

// unsubscribe removes a listener; its channel is never closed (the publisher
// may hold a reference mid-send), the subscriber just stops reading.
func (h *driftHub) unsubscribe(name string, ch chan driftEvent) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if set := h.subs[name]; set != nil {
		delete(set, ch)
		if len(set) == 0 {
			delete(h.subs, name)
		}
	}
}

// hasSubscribers reports whether anyone is listening — the PATCH path uses it
// to skip drift measurement entirely when nobody would see the result.
func (h *driftHub) hasSubscribers(name string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs[name]) > 0
}

// publish delivers the events to every subscriber of the named dataset,
// dropping (and counting) what a full buffer cannot take.
func (h *driftHub) publish(name string, events []driftEvent) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.events.Add(int64(len(events)))
	for ch := range h.subs[name] { //srlint:ordered each subscriber sees events in order; delivery order across subscribers is unobservable
		for _, ev := range events {
			select {
			case ch <- ev:
			default:
				h.dropped.Add(1)
			}
		}
	}
}

// handleDrift is GET /v1/{dataset}/drift.
func (s *Server) handleDrift(w http.ResponseWriter, r *http.Request, name string) {
	ds, gen, ver, ok := s.registry.Get(name)
	if !ok {
		writeError(w, errNotFound("unknown dataset %q", name))
		return
	}
	s.markServedLocally(w)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Accel-Buffering", "no") // disable proxy buffering
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)

	// Subscribe before the hello line: a PATCH racing the stream open lands
	// in the buffer instead of the gap.
	ch := s.drift.subscribe(name)
	defer s.drift.unsubscribe(name, ch)
	if err := enc.Encode(driftHello{Dataset: name, N: ds.N(), D: ds.D(), Generation: gen, Version: ver, Streaming: true}); err != nil {
		return
	}
	if flusher != nil {
		flusher.Flush()
	}
	ctx := clientContext(r)
	for {
		//srlint:ordered disconnect-vs-event race; events within ch stay ordered and a lost final event is indistinguishable from disconnecting earlier
		select {
		case <-ctx.Done():
			return
		case ev := <-ch:
			if err := enc.Encode(ev); err != nil {
				return // client went away mid-write
			}
			s.drift.streamed.Add(1)
			if flusher != nil {
				flusher.Flush()
			}
		}
	}
}
