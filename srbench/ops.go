package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/url"
	"strconv"
	"strings"

	"stablerank"
)

// opKind is the HTTP shape of one request.
type opKind uint8

const (
	kQuery  opKind = iota // POST /v1/query
	kStream               // GET /v1/query/stream
	kPatch                // PATCH /v1/datasets/{name}
	kGet                  // GET /v1/{dataset}/verify
)

// op is one generated request plus what its answer checks need.
type op struct {
	id    int
	kind  opKind
	class string // report class, e.g. "verify", "adaptive", "toph2d", "patch"
	ds    string

	q      *queryReq   // kQuery
	deltas []deltaJSON // kPatch
	get    *getReq     // kGet and kStream
	body   []byte      // encoded request body (kQuery, kPatch)
	path   string      // request path and query string
	method string      // HTTP method
	// data is the dataset state the answer must reflect: the generator
	// applies every earlier PATCH of the stream to its own copy.
	data *stablerank.Dataset
}

// queryReq is the POST /v1/query body.
type queryReq struct {
	Dataset  string      `json:"dataset"`
	Weights  []float64   `json:"weights,omitempty"`
	Cosine   float64     `json:"cosine,omitempty"`
	Seed     *int64      `json:"seed,omitempty"`
	Samples  *int        `json:"samples,omitempty"`
	Adaptive float64     `json:"adaptive,omitempty"`
	Queries  []querySpec `json:"queries"`
}

type querySpec struct {
	Op      string    `json:"op"`
	Weights []float64 `json:"weights,omitempty"`
	H       int       `json:"h,omitempty"`
	S       float64   `json:"s,omitempty"`
	Item    string    `json:"item,omitempty"`
	N       int       `json:"n,omitempty"`
}

// getReq parameterizes GET /v1/{dataset}/verify and GET /v1/query/stream.
type getReq struct {
	op      string // verify or enumerate
	weights []float64
	region  []float64 // region center; nil = full space
	cosine  float64
	limit   int
	samples int
}

// deltaJSON is one PATCH delta on the wire.
type deltaJSON struct {
	Op    string    `json:"op"`
	ID    string    `json:"id"`
	Attrs []float64 `json:"attrs,omitempty"`
}

func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'g', -1, 64)
	}
	return strings.Join(parts, ",")
}

// encode fills the op's method, path and body from its structured request.
// Encoding is deterministic, so the same op stream yields the same bytes.
func (o *op) encode() {
	switch o.kind {
	case kQuery:
		o.method, o.path = "POST", "/v1/query"
		o.body = mustJSON(o.q)
	case kPatch:
		o.method, o.path = "PATCH", "/v1/datasets/"+o.ds
		o.body = mustJSON(map[string]any{"deltas": o.deltas})
	case kGet, kStream:
		v := url.Values{}
		g := o.get
		if g.region != nil {
			v.Set("weights", fmtFloats(g.region))
			v.Set("cosine", strconv.FormatFloat(g.cosine, 'g', -1, 64))
		} else if g.weights != nil {
			v.Set("weights", fmtFloats(g.weights))
		}
		v.Set("samples", strconv.Itoa(g.samples))
		o.method = "GET"
		if o.kind == kStream {
			v.Set("dataset", o.ds)
			v.Set("op", "enumerate")
			v.Set("limit", strconv.Itoa(g.limit))
			o.path = "/v1/query/stream?" + v.Encode()
		} else {
			o.path = "/v1/" + o.ds + "/" + g.op + "?" + v.Encode()
		}
	}
}

func mustJSON(v any) []byte {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		panic(fmt.Sprintf("encoding request: %v", err))
	}
	return bytes.TrimSuffix(b.Bytes(), []byte("\n"))
}

// wire returns the exact bytes the op sends: method, path and body.
func (o *op) wire() []byte {
	var b bytes.Buffer
	b.WriteString(o.method)
	b.WriteByte(' ')
	b.WriteString(o.path)
	b.WriteByte('\n')
	b.Write(o.body)
	b.WriteByte('\n')
	return b.Bytes()
}

// isRead reports whether the op counts toward the read_* metrics.
func (o *op) isRead() bool { return o.kind != kPatch }
