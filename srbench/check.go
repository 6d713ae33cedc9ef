package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"

	"stablerank"
)

// Wire shapes of stablerankd answers, decoded for checking.

type itemRef struct {
	Index int    `json:"index"`
	ID    string `json:"id"`
}

type stableResp struct {
	Rank            int       `json:"rank"`
	Stability       float64   `json:"stability"`
	ConfidenceError float64   `json:"confidence_error"`
	Exact           bool      `json:"exact"`
	Items           []itemRef `json:"items"`
}

type opResult struct {
	Op              string         `json:"op"`
	Error           string         `json:"error"`
	Ranking         []itemRef      `json:"ranking"`
	Stability       *float64       `json:"stability"`
	ConfidenceError *float64       `json:"confidence_error"`
	Exact           *bool          `json:"exact"`
	SampleCount     int            `json:"sample_count"`
	Adaptive        bool           `json:"adaptive"`
	Rankings        []stableResp   `json:"rankings"`
	Item            *itemRef       `json:"item"`
	Samples         int            `json:"samples"`
	Best            int            `json:"best"`
	Worst           int            `json:"worst"`
	Counts          map[string]int `json:"counts"`
}

type queryResp struct {
	Dataset string     `json:"dataset"`
	Results []opResult `json:"results"`
}

type getVerifyResp struct {
	Ranking         []itemRef `json:"ranking"`
	Stability       float64   `json:"stability"`
	ConfidenceError float64   `json:"confidence_error"`
	Exact           bool      `json:"exact"`
	SampleCount     int       `json:"sample_count"`
}

type streamLine struct {
	Rank       int       `json:"rank"`
	Stability  float64   `json:"stability"`
	Cumulative float64   `json:"cumulative_stability"`
	Items      []itemRef `json:"items"`
	Done       bool      `json:"done"`
	Count      int       `json:"count"`
	Error      string    `json:"error"`
}

type patchResp struct {
	Version int64 `json:"version"`
	Applied int   `json:"applied"`
	N       int   `json:"n"`
}

// maxRankingItems is stablerankd's default truncation of rankings in
// responses (server.Config.MaxRankingItems).
const maxRankingItems = 100

// answerStats are exact counts read off checked answers.
type answerStats struct {
	verifies     int   // verify results
	rows         int   // sum of sample_count over verify results
	sweepBytes   int   // pool bytes the verify sweeps read: rows × d × 8
	rankings     int   // rankings returned by enumeration ops
	patchVersion int64 // the version a PATCH answer reports
}

// checker validates answers. idsOf caches the ID set of each dataset state.
type checker struct {
	mu  sync.Mutex
	ids map[*stablerank.Dataset]map[string]bool
}

func newChecker() *checker {
	return &checker{ids: make(map[*stablerank.Dataset]map[string]bool)}
}

func (c *checker) idsOf(ds *stablerank.Dataset) map[string]bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.ids[ds]
	if !ok {
		m = make(map[string]bool, ds.N())
		for i := 0; i < ds.N(); i++ {
			m[ds.Item(i).ID] = true
		}
		c.ids[ds] = m
	}
	return m
}

func unit(x float64) bool { return x >= 0 && x <= 1 && !math.IsNaN(x) }

// checkRanking checks that items is the dataset's ranking: a permutation of
// its IDs, or, when the server truncates, that many distinct IDs.
func (c *checker) checkRanking(ds *stablerank.Dataset, items []itemRef) error {
	want := min(ds.N(), maxRankingItems)
	if len(items) != want {
		return fmt.Errorf("ranking has %d items, want %d", len(items), want)
	}
	ids := c.idsOf(ds)
	seen := make(map[string]bool, len(items))
	for _, it := range items {
		if !ids[it.ID] {
			return fmt.Errorf("ranking item %q is not in the dataset", it.ID)
		}
		if seen[it.ID] {
			return fmt.Errorf("ranking repeats item %q", it.ID)
		}
		seen[it.ID] = true
	}
	return nil
}

func (c *checker) checkStables(ds *stablerank.Dataset, rs []stableResp) error {
	prev := math.Inf(1)
	for i, r := range rs {
		if r.Rank != 0 && r.Rank != i+1 {
			return fmt.Errorf("ranking %d reports rank %d", i+1, r.Rank)
		}
		if !unit(r.Stability) || !unit(r.ConfidenceError) {
			return fmt.Errorf("ranking %d: stability %v or confidence error %v outside [0, 1]", i+1, r.Stability, r.ConfidenceError)
		}
		if r.Stability > prev {
			return fmt.Errorf("ranking %d: stability %v rises above %v", i+1, r.Stability, prev)
		}
		prev = r.Stability
		if err := c.checkRanking(ds, r.Items); err != nil {
			return fmt.Errorf("ranking %d: %w", i+1, err)
		}
	}
	return nil
}

// checkQuery checks a POST /v1/query answer against its request.
func (c *checker) checkQuery(o *op, body []byte, st *answerStats) error {
	var resp queryResp
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decoding answer: %w", err)
	}
	if len(resp.Results) != len(o.q.Queries) {
		return fmt.Errorf("%d results for %d queries", len(resp.Results), len(o.q.Queries))
	}
	pool := *o.q.Samples
	swept, adaptMax := false, 0
	for i, r := range resp.Results {
		q := o.q.Queries[i]
		if r.Error != "" {
			return fmt.Errorf("queries[%d]: %s", i, r.Error)
		}
		if r.Op != q.Op {
			return fmt.Errorf("queries[%d]: answer is for op %q, want %q", i, r.Op, q.Op)
		}
		switch q.Op {
		case "verify":
			if r.Stability == nil || r.ConfidenceError == nil || !unit(*r.Stability) || !unit(*r.ConfidenceError) {
				return fmt.Errorf("queries[%d]: stability or confidence error missing or outside [0, 1]", i)
			}
			exact := r.Exact != nil && *r.Exact
			if !exact {
				if o.q.Adaptive > 0 && r.Adaptive {
					if r.SampleCount < 1 || r.SampleCount > pool {
						return fmt.Errorf("queries[%d]: adaptive sample_count %d outside [1, %d]", i, r.SampleCount, pool)
					}
					adaptMax = max(adaptMax, r.SampleCount)
				} else {
					if r.SampleCount != pool {
						return fmt.Errorf("queries[%d]: sample_count %d, want the pool size %d", i, r.SampleCount, pool)
					}
					if !swept {
						st.sweepBytes += pool * o.data.D() * 8
						swept = true
					}
				}
			}
			if err := c.checkRanking(o.data, r.Ranking); err != nil {
				return fmt.Errorf("queries[%d]: %w", i, err)
			}
			st.verifies++
			st.rows += r.SampleCount
		case "itemrank":
			total := 0
			for _, n := range r.Counts {
				total += n
			}
			if r.Samples != q.N || total != q.N {
				return fmt.Errorf("queries[%d]: itemrank covers %d samples (counts sum %d), want %d", i, r.Samples, total, q.N)
			}
			if r.Best < 1 || r.Best > r.Worst || r.Worst > o.data.N() {
				return fmt.Errorf("queries[%d]: itemrank best %d / worst %d outside [1, %d]", i, r.Best, r.Worst, o.data.N())
			}
		case "toph", "above":
			if q.Op == "toph" && len(r.Rankings) > q.H {
				return fmt.Errorf("queries[%d]: %d rankings for h=%d", i, len(r.Rankings), q.H)
			}
			if len(r.Rankings) == 0 {
				return fmt.Errorf("queries[%d]: no rankings", i)
			}
			if q.Op == "above" && r.Rankings[len(r.Rankings)-1].Stability < q.S {
				return fmt.Errorf("queries[%d]: ranking below the threshold %v", i, q.S)
			}
			if err := c.checkStables(o.data, r.Rankings); err != nil {
				return fmt.Errorf("queries[%d]: %w", i, err)
			}
			st.rankings += len(r.Rankings)
		}
	}
	// The adaptive sweep walks all its verifies down the pool together, so
	// it reads as far as the latest stop.
	st.sweepBytes += adaptMax * o.data.D() * 8
	return nil
}

// checkGet checks a GET /v1/{dataset}/verify answer.
func (c *checker) checkGet(o *op, body []byte, st *answerStats) error {
	var r getVerifyResp
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("decoding answer: %w", err)
	}
	if !unit(r.Stability) || !unit(r.ConfidenceError) {
		return fmt.Errorf("stability %v or confidence error %v outside [0, 1]", r.Stability, r.ConfidenceError)
	}
	if !r.Exact && r.SampleCount != o.get.samples {
		return fmt.Errorf("sample_count %d, want the pool size %d", r.SampleCount, o.get.samples)
	}
	st.verifies++
	st.rows += r.SampleCount
	st.sweepBytes += r.SampleCount * o.data.D() * 8
	return c.checkRanking(o.data, r.Ranking)
}

// readStream reads and checks an NDJSON enumeration: consecutive ranks,
// non-increasing stability, and a summary whose count equals the lines
// sent. firstRow is called when the first ranking line arrives.
func (c *checker) readStream(o *op, r io.Reader, firstRow func(), st *answerStats) (int, error) {
	br := bufio.NewReader(r)
	n, lines := 0, 0
	prev := math.Inf(1)
	for {
		line, err := br.ReadBytes('\n')
		n += len(line)
		if len(bytes.TrimSpace(line)) > 0 {
			var l streamLine
			if jerr := json.Unmarshal(line, &l); jerr != nil {
				return n, fmt.Errorf("stream line %d: %w", lines+1, jerr)
			}
			switch {
			case l.Error != "":
				return n, fmt.Errorf("stream failed: %s", l.Error)
			case l.Done:
				if l.Count != lines {
					return n, fmt.Errorf("stream summary counts %d rankings, %d were sent", l.Count, lines)
				}
				if lines == 0 || lines > o.get.limit {
					return n, fmt.Errorf("stream sent %d rankings for limit %d", lines, o.get.limit)
				}
				st.rankings += lines
				_, _ = io.Copy(io.Discard, br)
				return n, nil
			default:
				if lines == 0 {
					firstRow()
				}
				lines++
				if l.Rank != lines {
					return n, fmt.Errorf("stream line %d reports rank %d", lines, l.Rank)
				}
				if !unit(l.Stability) || l.Stability > prev {
					return n, fmt.Errorf("stream line %d: stability %v outside [0, 1] or above %v", lines, l.Stability, prev)
				}
				prev = l.Stability
				if cerr := c.checkRanking(o.data, l.Items); cerr != nil {
					return n, fmt.Errorf("stream line %d: %w", lines, cerr)
				}
			}
		}
		if err != nil {
			if errors.Is(err, io.EOF) {
				return n, errors.New("stream ended without a summary line")
			}
			return n, err
		}
	}
}

func (c *checker) checkPatch(o *op, body []byte, st *answerStats) error {
	var r patchResp
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("decoding answer: %w", err)
	}
	if r.Applied != len(o.deltas) || r.N != o.data.N() {
		return fmt.Errorf("PATCH applied %d deltas leaving %d items, want %d and %d", r.Applied, r.N, len(o.deltas), o.data.N())
	}
	st.patchVersion = r.Version
	return nil
}

// check validates a complete non-stream answer.
func (c *checker) check(o *op, status int, body []byte, st *answerStats) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
	}
	switch o.kind {
	case kQuery:
		return c.checkQuery(o, body, st)
	case kGet:
		return c.checkGet(o, body, st)
	case kPatch:
		return c.checkPatch(o, body, st)
	}
	return fmt.Errorf("op kind %d has no body check", o.kind)
}
