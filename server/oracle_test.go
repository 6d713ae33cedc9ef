package server

import (
	"bytes"
	"encoding/json"
	"strconv"
	"time"

	"stablerank"
)

// The rendering oracle: every answer's wire shape as structs, filled the
// way the server filled them before it rendered answers straight to bytes
// (render.go), and encoded with encoding/json with HTML escaping off.
// FuzzRenderMatchesJSON requires the renderer to write these bytes; the
// other tests decode answers into these shapes.

type itemRef struct {
	Index int    `json:"index"`
	ID    string `json:"id"`
}

type stableResponse struct {
	Rank            int       `json:"rank"`
	Stability       float64   `json:"stability"`
	Exact           bool      `json:"exact"`
	Items           []itemRef `json:"items"`
	Weights         []float64 `json:"weights,omitempty"`
	ConfidenceError float64   `json:"confidence_error,omitempty"`
}

// facetResponse is one boundary facet: the adjacent pair whose exchange the
// facet realizes, plus the constraint normal (positive side = inside).
type facetResponse struct {
	Upper  itemRef   `json:"upper"`
	Lower  itemRef   `json:"lower"`
	Normal []float64 `json:"normal"`
}

// opResult is one operation's outcome; the fields matching the echoed Op are
// populated, or Error alone when that operation failed.
type opResult struct {
	Op    string `json:"op"`
	Error string `json:"error,omitempty"`

	// verify
	Ranking         []itemRef `json:"ranking,omitempty"`
	Stability       *float64  `json:"stability,omitempty"`
	ConfidenceError *float64  `json:"confidence_error,omitempty"`
	Exact           *bool     `json:"exact,omitempty"`
	SampleCount     int       `json:"sample_count,omitempty"`
	Adaptive        bool      `json:"adaptive,omitempty"`

	// toph / above / enumerate. Rankings is present (possibly empty) for
	// these operations and absent for the others.
	H         int              `json:"h,omitempty"`
	Threshold float64          `json:"threshold,omitempty"`
	Limit     int              `json:"limit,omitempty"`
	Rankings  []stableResponse `json:"rankings,omitzero"`

	// itemrank
	Item           *itemRef       `json:"item,omitempty"`
	Samples        int            `json:"samples,omitempty"`
	Best           int            `json:"best,omitempty"`
	Worst          int            `json:"worst,omitempty"`
	Mode           int            `json:"mode,omitempty"`
	Median         int            `json:"median,omitempty"`
	Counts         map[string]int `json:"counts,omitempty"`
	ProbabilityTop map[string]any `json:"probability_top,omitempty"`

	// boundary
	Facets []facetResponse `json:"facets,omitempty"`
}

// queryResponse is a POST /v1/query body and a job's result.
type queryResponse struct {
	Dataset string     `json:"dataset"`
	Results []opResult `json:"results"`
}

// getResponse is a GET /v1/{dataset}/{op} answer: the operation's result,
// as in a POST /v1/query results list, plus the dataset name.
type getResponse struct {
	Dataset string `json:"dataset"`
	opResult
}

// pageResponse is a GET /v1/{dataset}/rankings answer: one page of an
// enumerate operation.
type pageResponse struct {
	Dataset string           `json:"dataset"`
	Page    int              `json:"page"`
	PerPage int              `json:"per_page"`
	HasMore bool             `json:"has_more"`
	Results []stableResponse `json:"results"`
}

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

// streamError is the terminal line of a stream that failed mid-way.
type streamError struct {
	Error string `json:"error"`
}

// jobResponse is a job envelope with its result decoded.
type jobResponse struct {
	ID       string         `json:"id"`
	Status   string         `json:"status"`
	Created  time.Time      `json:"created"`
	Started  *time.Time     `json:"started,omitempty"`
	Finished *time.Time     `json:"finished,omitempty"`
	Error    string         `json:"error,omitempty"`
	Result   *queryResponse `json:"result,omitempty"`
}

// oracleJSON encodes v as the oracle renders every answer: encoding/json
// with HTML escaping off, without the encoder's closing newline.
func oracleJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return bytes.TrimSuffix(buf.Bytes(), []byte("\n")), nil
}

// renderOpResult maps one library Result onto the wire shape.
func renderOpResult(ds *stablerank.Dataset, spec querySpec, q stablerank.Query, res stablerank.Result) opResult {
	out := opResult{Op: spec.Op}
	if res.Err != nil {
		out.Error = res.Err.Error()
		return out
	}
	switch spec.Op {
	case "verify":
		v := res.Verification
		out.Ranking = itemRefs(ds, q.(stablerank.VerifyQuery).Ranking.Order)
		out.Stability = &v.Stability
		out.ConfidenceError = &v.ConfidenceError
		out.Exact = &v.Exact
		out.SampleCount = v.SampleCount
		out.Adaptive = v.Adaptive
	case "toph":
		out.H = spec.H
		out.Rankings = stableResponses(ds, res.Stables, 0)
	case "above":
		out.Threshold = spec.S
		out.Rankings = stableResponses(ds, res.Stables, 0)
	case "enumerate":
		out.Limit = q.(stablerank.EnumerateQuery).Limit
		out.Rankings = stableResponses(ds, res.Stables, 0)
	case "itemrank":
		dist := res.RankDistribution
		idx := q.(stablerank.ItemRankQuery).Item
		counts := make(map[string]int, len(dist.Counts))
		for rnk, c := range dist.Counts {
			counts[strconv.Itoa(rnk)] = c
		}
		out.Item = &itemRef{Index: idx, ID: spec.Item}
		out.Samples = dist.Samples
		out.Best = dist.Best
		out.Worst = dist.Worst
		out.Mode = dist.Mode()
		out.Median = dist.Quantile(0.5)
		out.Counts = counts
		if spec.K > 0 {
			out.ProbabilityTop = map[string]any{
				"k":           spec.K,
				"probability": dist.ProbabilityTopK(spec.K),
			}
		}
	case "boundary":
		facets := make([]facetResponse, len(res.Facets))
		for i, f := range res.Facets {
			facets[i] = facetResponse{
				Upper:  itemRef{Index: f.Upper, ID: ds.Item(f.Upper).ID},
				Lower:  itemRef{Index: f.Lower, ID: ds.Item(f.Lower).ID},
				Normal: f.Halfspace.Normal,
			}
		}
		out.Facets = facets
	}
	return out
}

// renderPage slices one page out of an enumeration that runs one past the
// page's end (or to exhaustion); has_more is whether that extra ranking
// exists.
func renderPage(ds *stablerank.Dataset, name string, spec querySpec, stables []stablerank.Stable) pageResponse {
	start := min(spec.page*spec.perPage, len(stables))
	end := min(start+spec.perPage, len(stables))
	return pageResponse{
		Dataset: name, Page: spec.page, PerPage: spec.perPage,
		HasMore: len(stables) > start+spec.perPage,
		Results: stableResponses(ds, stables[start:end], start),
	}
}

func itemRefs(ds *stablerank.Dataset, order []int) []itemRef {
	limit := min(len(order), maxRankingItems)
	refs := make([]itemRef, limit)
	for i := 0; i < limit; i++ {
		refs[i] = itemRef{Index: order[i], ID: ds.Item(order[i]).ID}
	}
	return refs
}

func stableResponses(ds *stablerank.Dataset, stables []stablerank.Stable, rankOffset int) []stableResponse {
	out := make([]stableResponse, len(stables))
	for i, st := range stables {
		out[i] = stableResponse{
			Rank:            rankOffset + i + 1,
			Stability:       st.Stability,
			Exact:           st.Exact,
			Items:           itemRefs(ds, st.Ranking.Order),
			Weights:         st.Weights,
			ConfidenceError: st.ConfidenceError,
		}
	}
	return out
}
