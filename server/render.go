package server

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"
	"unicode/utf8"

	"stablerank"
)

// Answer rendering. Every query answer — the POST /v1/query body, a GET
// answer or rankings page (rendered once into the response cache), each
// GET /v1/query/stream line, and a job's result (rendered once when the job
// finishes) — is appended straight into a byte slice by a renderer, without
// reflection. The bytes are exactly those encoding/json writes for the
// answer's wire shape with HTML escaping off: oracle_test.go keeps those
// shapes as structs, and FuzzRenderMatchesJSON holds the two renderings to
// the byte. A float JSON cannot represent (NaN, ±Inf) is an error, as it is
// for encoding/json, and an answer (a stream: its first line) is rendered in
// full before its status line is written.

// maxRankingItems truncates every ranking in an answer to its leading items.
const maxRankingItems = 100

// itemTable holds one dataset version's item references,
// {"index":i,"id":"…"} (the ID, so answers stay meaningful to clients that
// never saw the CSV row order), rendered once: item i is ref(i). A registry
// entry builds it for the first answer that needs it, so a ranking renders
// as a copy of its leading items' fragments, and it is freed with the
// version.
type itemTable struct {
	buf []byte
	off []int
}

func newItemTable(ds *stablerank.Dataset) *itemTable {
	t := &itemTable{buf: make([]byte, 0, 32*ds.N()), off: make([]int, 1, ds.N()+1)}
	for i := range ds.N() {
		t.buf = append(t.buf, `{"index":`...)
		t.buf = strconv.AppendInt(t.buf, int64(i), 10)
		t.buf = append(t.buf, `,"id":`...)
		t.buf = appendString(t.buf, ds.Item(i).ID)
		t.buf = append(t.buf, '}')
		t.off = append(t.off, len(t.buf))
	}
	return t
}

// ref returns item i's rendered reference.
func (t *itemTable) ref(i int) []byte { return t.buf[t.off[i]:t.off[i+1]] }

// renderer appends answers to b. items are the item references of the
// dataset version the answer was computed on; err keeps the first value
// JSON cannot represent, after which b is not to be sent.
type renderer struct {
	b     []byte
	items *itemTable
	err   error
}

// renderers recycles the renderers request handlers render into.
var renderers = sync.Pool{New: func() any { return new(renderer) }}

// maxPooledBuf is the largest buffer a released renderer keeps: one huge
// answer must not pin its memory in the pool.
const maxPooledBuf = 1 << 20

// newRenderer returns an empty pooled renderer over items.
func newRenderer(items *itemTable) *renderer {
	rd := renderers.Get().(*renderer)
	rd.items = items
	return rd
}

// release returns rd to the pool, or drops it if its buffer grew past
// maxPooledBuf. Bytes still needed after release must be copied first.
func (rd *renderer) release() {
	if cap(rd.b) > maxPooledBuf {
		return
	}
	*rd = renderer{b: rd.b[:0]}
	renderers.Put(rd)
}

// reset empties rd for the next answer.
func (rd *renderer) reset() {
	rd.b, rd.err = rd.b[:0], nil
}

func (rd *renderer) raw(s string)   { rd.b = append(rd.b, s...) }
func (rd *renderer) str(s string)   { rd.b = appendString(rd.b, s) }
func (rd *renderer) int(v int)      { rd.b = strconv.AppendInt(rd.b, int64(v), 10) }
func (rd *renderer) bool(v bool)    { rd.b = strconv.AppendBool(rd.b, v) }
func (rd *renderer) item(i int)     { rd.b = append(rd.b, rd.items.ref(i)...) }
func (rd *renderer) field(k string) { rd.b = append(append(append(rd.b, ",\""...), k...), "\":"...) }

// intField renders a nonzero int as the next field, as omitempty does.
func (rd *renderer) intField(k string, v int) {
	if v != 0 {
		rd.field(k)
		rd.int(v)
	}
}

// float renders f as encoding/json does: like strconv's shortest 'f'
// form, switching to 'e' below 1e-6 and from 1e21, with a one-digit
// negative exponent unpadded.
func (rd *renderer) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if rd.err == nil {
			rd.err = fmt.Errorf("rendering answer: unsupported value %v", f)
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	rd.b = strconv.AppendFloat(rd.b, f, format, -1, 64)
	if n := len(rd.b); format == 'e' && rd.b[n-4] == 'e' && rd.b[n-3] == '-' && rd.b[n-2] == '0' {
		rd.b[n-2] = rd.b[n-1]
		rd.b = rd.b[:n-1]
	}
}

// floats renders a float list; nil is null.
func (rd *renderer) floats(v []float64) {
	if v == nil {
		rd.raw("null")
		return
	}
	rd.raw("[")
	for i, f := range v {
		if i > 0 {
			rd.raw(",")
		}
		rd.float(f)
	}
	rd.raw("]")
}

// ranking renders the first maxRankingItems items of order. It appends to
// a local slice and stores rd.b once: while the collector marks, every store
// into the pooled renderer runs a write barrier, which cost a fifth of a
// top-10 request's CPU when each item stored it.
func (rd *renderer) ranking(order []int) {
	b, t := append(rd.b, '['), rd.items
	for i, idx := range order[:min(len(order), maxRankingItems)] {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, t.ref(idx)...)
	}
	rd.b = append(b, ']')
}

// queryBody renders a POST /v1/query body, which is also a job's result:
// the dataset and one result object per operation.
func (rd *renderer) queryBody(dataset string, specs []querySpec, queries []stablerank.Query, results []stablerank.Result) {
	rd.raw(`{"dataset":`)
	rd.str(dataset)
	rd.raw(`,"results":[`)
	for i, res := range results {
		if i > 0 {
			rd.raw(",")
		}
		rd.raw("{")
		rd.opFields(specs[i], queries[i], res)
		rd.raw("}")
	}
	rd.raw("]}")
}

// getAnswer renders a GET /v1/{dataset}/{op} answer: the operation's
// result object, as in a POST /v1/query results list, with the dataset
// name first.
func (rd *renderer) getAnswer(dataset string, spec querySpec, q stablerank.Query, res stablerank.Result) {
	rd.raw(`{"dataset":`)
	rd.str(dataset)
	rd.raw(",")
	rd.opFields(spec, q, res)
	rd.raw("}")
}

// page renders a GET /v1/{dataset}/rankings answer: one page sliced out of
// an enumeration that runs one past the page's end (or to exhaustion);
// has_more is whether that extra ranking exists.
func (rd *renderer) page(dataset string, spec querySpec, stables []stablerank.Stable) {
	start := min(spec.page*spec.perPage, len(stables))
	end := min(start+spec.perPage, len(stables))
	rd.raw(`{"dataset":`)
	rd.str(dataset)
	rd.field("page")
	rd.int(spec.page)
	rd.field("per_page")
	rd.int(spec.perPage)
	rd.field("has_more")
	rd.bool(len(stables) > start+spec.perPage)
	rd.field("results")
	rd.stables(stables[start:end], start)
	rd.raw("}")
}

// opFields renders one operation's result fields: the echoed op, then the
// fields of that op, or the error alone when the operation failed. Empty
// and zero fields are left out where the wire shape marks them omitempty.
// An itemrank item renders from the item table, whose ID at the resolved
// index is the requested one.
func (rd *renderer) opFields(spec querySpec, q stablerank.Query, res stablerank.Result) {
	rd.raw(`"op":`)
	rd.str(spec.Op)
	if res.Err != nil {
		if msg := res.Err.Error(); msg != "" {
			rd.field("error")
			rd.str(msg)
		}
		return
	}
	switch spec.Op {
	case "verify":
		v := res.Verification
		if order := q.(stablerank.VerifyQuery).Ranking.Order; len(order) > 0 {
			rd.field("ranking")
			rd.ranking(order)
		}
		rd.field("stability")
		rd.float(v.Stability)
		rd.field("confidence_error")
		rd.float(v.ConfidenceError)
		rd.field("exact")
		rd.bool(v.Exact)
		rd.intField("sample_count", v.SampleCount)
		if v.Adaptive {
			rd.raw(`,"adaptive":true`)
		}
	case "toph":
		rd.intField("h", spec.H)
		rd.field("rankings")
		rd.stables(res.Stables, 0)
	case "above":
		if spec.S != 0 {
			rd.field("threshold")
			rd.float(spec.S)
		}
		rd.field("rankings")
		rd.stables(res.Stables, 0)
	case "enumerate":
		rd.intField("limit", q.(stablerank.EnumerateQuery).Limit)
		rd.field("rankings")
		rd.stables(res.Stables, 0)
	case "itemrank":
		dist := res.RankDistribution
		rd.field("item")
		rd.item(q.(stablerank.ItemRankQuery).Item)
		rd.intField("samples", dist.Samples)
		rd.intField("best", dist.Best)
		rd.intField("worst", dist.Worst)
		rd.intField("mode", dist.Mode())
		rd.intField("median", dist.Quantile(0.5))
		rd.counts(dist.Counts)
		if spec.K > 0 {
			rd.raw(`,"probability_top":{"k":`)
			rd.int(spec.K)
			rd.field("probability")
			rd.float(dist.ProbabilityTopK(spec.K))
			rd.raw("}")
		}
	case "boundary":
		if len(res.Facets) == 0 {
			return
		}
		rd.raw(`,"facets":[`)
		for i, f := range res.Facets {
			if i > 0 {
				rd.raw(",")
			}
			rd.raw(`{"upper":`)
			rd.item(f.Upper)
			rd.field("lower")
			rd.item(f.Lower)
			rd.field("normal")
			rd.floats(f.Halfspace.Normal)
			rd.raw("}")
		}
		rd.raw("]")
	}
}

// counts renders an item-rank histogram as an object keyed by rank. Like
// encoding/json with a map[string]int, it orders the keys as strings, so
// rank 10 precedes rank 2; an empty histogram is left out.
func (rd *renderer) counts(counts map[int]int) {
	if len(counts) == 0 {
		return
	}
	ranks := make([]int, 0, len(counts))
	for rank := range counts {
		ranks = append(ranks, rank)
	}
	slices.SortFunc(ranks, func(a, b int) int {
		var x, y [20]byte
		return bytes.Compare(strconv.AppendInt(x[:0], int64(a), 10), strconv.AppendInt(y[:0], int64(b), 10))
	})
	rd.raw(`,"counts":{`)
	for i, rank := range ranks {
		if i > 0 {
			rd.raw(",")
		}
		rd.raw(`"`)
		rd.int(rank)
		rd.raw(`":`)
		rd.int(counts[rank])
	}
	rd.raw("}")
}

// stables renders enumerated rankings, numbered from rankOffset+1.
func (rd *renderer) stables(stables []stablerank.Stable, rankOffset int) {
	rd.raw("[")
	for i, st := range stables {
		if i > 0 {
			rd.raw(",")
		}
		rd.raw(`{"rank":`)
		rd.int(rankOffset + i + 1)
		rd.field("stability")
		rd.float(st.Stability)
		rd.field("exact")
		rd.bool(st.Exact)
		rd.field("items")
		rd.ranking(st.Ranking.Order)
		if len(st.Weights) > 0 {
			rd.field("weights")
			rd.floats(st.Weights)
		}
		if st.ConfidenceError != 0 {
			rd.field("confidence_error")
			rd.float(st.ConfidenceError)
		}
		rd.raw("}")
	}
	rd.raw("]")
}

// streamLine renders one GET /v1/query/stream line, newline included: the
// rank-th enumerated ranking and the stability mass through it.
func (rd *renderer) streamLine(rank int, st stablerank.Stable, cumulative float64) {
	rd.raw(`{"rank":`)
	rd.int(rank)
	rd.field("stability")
	rd.float(st.Stability)
	if st.ConfidenceError != 0 {
		rd.field("confidence_error")
		rd.float(st.ConfidenceError)
	}
	rd.field("cumulative_stability")
	rd.float(cumulative)
	if st.Exact {
		rd.raw(`,"exact":true`)
	}
	rd.field("items")
	rd.ranking(st.Ranking.Order)
	if len(st.Weights) > 0 {
		rd.field("weights")
		rd.floats(st.Weights)
	}
	rd.raw("}\n")
}

// streamSummary renders a stream's closing line, newline included.
func (rd *renderer) streamSummary(count int, cumulative float64, truncated bool) {
	rd.raw(`{"done":true,"count":`)
	rd.int(count)
	rd.field("cumulative_stability")
	rd.float(cumulative)
	rd.field("truncated")
	rd.bool(truncated)
	rd.raw("}\n")
}

// streamError renders the terminal line of a stream that failed after its
// status line was written, newline included.
func (rd *renderer) streamError(msg string) {
	rd.raw(`{"error":`)
	rd.str(msg)
	rd.raw("}\n")
}

// appendString appends s as a JSON string escaped as encoding/json escapes
// it with HTML escaping off: quotes, backslashes and control bytes, each
// invalid UTF-8 byte as U+FFFD, and U+2028 and U+2029; <, > and & stay as
// they are.
func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
