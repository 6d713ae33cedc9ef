package server_test

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"stablerank"
	"stablerank/server"
)

// discardWriter is a ResponseWriter that keeps the status and the body
// size and drops the body, so a benchmark times the handler rather than a
// recorder's buffer.
type discardWriter struct {
	header http.Header
	status int
	n      int
}

func (w *discardWriter) Header() http.Header  { return w.header }
func (w *discardWriter) WriteHeader(code int) { w.status = code }
func (w *discardWriter) Flush()               {}
func (w *discardWriter) Write(b []byte) (int, error) {
	w.n += len(b)
	return len(b), nil
}

// BenchmarkHandler times warm requests through Server.Handler() in-process,
// at the shapes the srbench enumerate and verify workloads send: the HTTP
// layer's own number, beside srbench's end-to-end one. It uses only the
// HTTP surface, so the same file runs against any version of the server.
// Run it with -cpu 1 -benchmem.
func BenchmarkHandler(b *testing.B) {
	reg := server.NewRegistry()
	rng := rand.New(rand.NewSource(1))
	for name, ds := range map[string]*stablerank.Dataset{
		"fifa":    stablerank.FIFA(rng, 100),
		"cs":      stablerank.CSMetrics(rng, 100),
		"players": stablerank.FIFA(rng, 300),
	} {
		if err := reg.Add(name, ds); err != nil {
			b.Fatal(err)
		}
	}
	srv, err := server.New(server.Config{Registry: reg})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(srv.Close)
	h := srv.Handler()

	ref := stablerank.FIFAReferenceWeights()
	weights := func(w []float64) string {
		raw, err := json.Marshal(w)
		if err != nil {
			b.Fatal(err)
		}
		return string(raw)
	}
	verifies := make([]string, 12)
	vrng := rand.New(rand.NewSource(2))
	for i := range verifies {
		w := make([]float64, len(ref))
		for j := range w {
			w[j] = ref[j] * (1 + 0.02*vrng.NormFloat64())
		}
		verifies[i] = fmt.Sprintf(`{"op":"verify","weights":%s}`, weights(w))
	}
	csv := strings.Trim(strings.Join(strings.Fields(fmt.Sprint(ref)), ","), "[]")
	for _, bc := range []struct {
		name, method, target, body string
	}{
		{"toph", http.MethodPost, "/v1/query",
			`{"dataset":"fifa","weights":` + weights(ref) + `,"cosine":0.999,"samples":20000,"queries":[{"op":"toph","h":10}]}`},
		{"toph2d", http.MethodPost, "/v1/query",
			`{"dataset":"cs","samples":20000,"queries":[{"op":"toph","h":10}]}`},
		{"stream", http.MethodGet,
			"/v1/query/stream?dataset=fifa&op=enumerate&limit=10&cosine=0.999&samples=20000&weights=" + csv, ""},
		{"verify", http.MethodPost, "/v1/query",
			`{"dataset":"players","weights":` + weights(ref) + `,"cosine":0.995,"samples":100000,"queries":[` + strings.Join(verifies, ",") + `]}`},
	} {
		serve := func() int {
			var body io.Reader
			if bc.body != "" {
				body = strings.NewReader(bc.body)
			}
			req := httptest.NewRequest(bc.method, bc.target, body)
			w := &discardWriter{header: make(http.Header)}
			h.ServeHTTP(w, req)
			if w.status != 0 && w.status != http.StatusOK {
				b.Fatalf("%s %s = %d", bc.method, bc.target, w.status)
			}
			return w.n
		}
		b.Run(bc.name, func(b *testing.B) {
			// Warm: the pool, the enumeration memo, and (for verify) the
			// pool index, which the second 12-verify sweep builds.
			for range 3 {
				serve()
			}
			size := 0
			for b.Loop() {
				size = serve()
			}
			b.ReportMetric(float64(size), "resp-B/op")
		})
	}
}
