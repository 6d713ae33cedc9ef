package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"stablerank/internal/mc"
	"stablerank/internal/sampling"
	"stablerank/internal/vecmat"
)

// The coordinator tests all pin the same invariant: whatever the workers do
// — serve correctly, die mid-stream, time out, corrupt frames, duplicate
// chunks — FillPool's output is bit-identical to a purely local build.

const (
	// 4 chunks: enough for every worker in a 2-worker split to own at
	// least 2, so "dies after its first chunk" is observable.
	testPoolTotal = 3*mc.PoolChunk + 700
	testPoolD     = 3
	testPoolSeed  = int64(424242)
)

func testSpec() RegionSpec {
	return RegionSpec{D: testPoolD, Weights: []float64{0.5, 0.3, 0.2}, Theta: 0.35}
}

func referencePool(t testing.TB) vecmat.Matrix {
	t.Helper()
	region, err := testSpec().Region()
	if err != nil {
		t.Fatalf("region: %v", err)
	}
	pool, err := mc.BuildPoolMatrix(context.Background(), mc.ConeSamplers(region, testPoolSeed), testPoolTotal, testPoolD, 4)
	if err != nil {
		t.Fatalf("reference pool: %v", err)
	}
	return pool
}

func assertPoolIdentical(t *testing.T, got, want vecmat.Matrix) {
	t.Helper()
	if got.Rows() != want.Rows() || got.Stride() != want.Stride() {
		t.Fatalf("pool shape (%d, %d), want (%d, %d)", got.Rows(), got.Stride(), want.Rows(), want.Stride())
	}
	if !bytes.Equal(got.Encode(), want.Encode()) {
		t.Fatal("pool bytes differ from the local build — determinism contract broken")
	}
}

func fillPool(t *testing.T, c *Coordinator) vecmat.Matrix {
	t.Helper()
	pool, err := c.FillPool(context.Background(), testSpec(), testPoolSeed, testPoolTotal)
	if err != nil {
		t.Fatalf("FillPool: %v", err)
	}
	return pool
}

func newWorkerServer(t testing.TB) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer((&Worker{}).Handler())
	t.Cleanup(srv.Close)
	return srv
}

func TestClusterFillPoolMatchesLocalBuild(t *testing.T) {
	want := referencePool(t)

	t.Run("no workers", func(t *testing.T) {
		c := NewCoordinator(CoordinatorConfig{})
		assertPoolIdentical(t, fillPool(t, c), want)
		if s := c.Stats(); s.RemoteChunks != 0 || s.LocalChunks != int64(mc.Chunks(testPoolTotal)) {
			t.Fatalf("stats = %+v, want all-local fill", s)
		}
	})

	t.Run("one worker", func(t *testing.T) {
		c := NewCoordinator(CoordinatorConfig{Workers: []string{newWorkerServer(t).URL}})
		assertPoolIdentical(t, fillPool(t, c), want)
		if s := c.Stats(); s.RemoteChunks != int64(mc.Chunks(testPoolTotal)) || s.LocalChunks != 0 {
			t.Fatalf("stats = %+v, want all-remote fill", s)
		}
	})

	t.Run("three workers", func(t *testing.T) {
		c := NewCoordinator(CoordinatorConfig{Workers: []string{
			newWorkerServer(t).URL, newWorkerServer(t).URL, newWorkerServer(t).URL,
		}})
		assertPoolIdentical(t, fillPool(t, c), want)
	})
}

func TestClusterWorkerDiesMidStream(t *testing.T) {
	want := referencePool(t)
	// This "worker" serves exactly one chunk of its share, then drops the
	// connection — the short stream must cost nothing but a local refill.
	dying := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req FillRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		region, _ := req.Region.Region()
		factory := mc.ConeSamplers(region, req.Seed)
		chunk := req.Chunks[0]
		lo, hi := mc.ChunkRange(chunk, req.Total)
		rows, err := mc.FillChunk(r.Context(), factory, chunk, req.Total, req.Region.D)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		_ = WriteChunk(w, Chunk{Index: chunk, Lo: lo, Hi: hi, Rows: rows})
	}))
	t.Cleanup(dying.Close)

	c := NewCoordinator(CoordinatorConfig{
		Workers: []string{dying.URL, newWorkerServer(t).URL},
	})
	assertPoolIdentical(t, fillPool(t, c), want)
	s := c.Stats()
	if s.WorkerErrors == 0 {
		t.Fatalf("stats = %+v, want worker errors recorded for the dying worker", s)
	}
	if s.RemoteChunks == 0 {
		t.Fatalf("stats = %+v, want some chunks served remotely before the death", s)
	}
}

func TestClusterWorkerTimeout(t *testing.T) {
	want := referencePool(t)
	hang := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Drain the body so the server notices the client abandoning the
		// request and cancels the context.
		_, _ = io.Copy(io.Discard, r.Body)
		select {
		case <-r.Context().Done():
		case <-time.After(10 * time.Second):
		}
	}))
	t.Cleanup(hang.Close)

	c := NewCoordinator(CoordinatorConfig{
		Workers:        []string{hang.URL},
		RequestTimeout: 100 * time.Millisecond,
	})
	start := time.Now()
	assertPoolIdentical(t, fillPool(t, c), want)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("fill took %v — the timeout did not bound the hung worker", elapsed)
	}
	s := c.Stats()
	if s.WorkerErrors == 0 || s.LocalChunks != int64(mc.Chunks(testPoolTotal)) {
		t.Fatalf("stats = %+v, want timeouts recorded and a full local fill", s)
	}
}

func TestClusterCorruptChunkRefilledLocally(t *testing.T) {
	want := referencePool(t)
	// A worker whose first frame arrives with a flipped payload bit: the CRC
	// must reject it and the chunk (plus the aborted remainder) refills
	// locally, bit-identically.
	corrupting := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req FillRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		region, _ := req.Region.Region()
		factory := mc.ConeSamplers(region, req.Seed)
		for i, chunk := range req.Chunks {
			lo, hi := mc.ChunkRange(chunk, req.Total)
			rows, err := mc.FillChunk(r.Context(), factory, chunk, req.Total, req.Region.D)
			if err != nil {
				return
			}
			var buf bytes.Buffer
			_ = WriteChunk(&buf, Chunk{Index: chunk, Lo: lo, Hi: hi, Rows: rows})
			frame := buf.Bytes()
			if i == 0 {
				frame[len(frame)-3] ^= 0x10
			}
			if _, err := w.Write(frame); err != nil {
				return
			}
		}
	}))
	t.Cleanup(corrupting.Close)

	c := NewCoordinator(CoordinatorConfig{Workers: []string{corrupting.URL}, RetryRounds: -1})
	assertPoolIdentical(t, fillPool(t, c), want)
	s := c.Stats()
	if s.CorruptChunks == 0 {
		t.Fatalf("stats = %+v, want the corrupt frame counted", s)
	}
	if s.LocalChunks == 0 {
		t.Fatalf("stats = %+v, want the rejected chunks refilled locally", s)
	}
}

func TestClusterDuplicateChunksDropped(t *testing.T) {
	want := referencePool(t)
	// A worker that sends every chunk twice: the duplicates must be counted
	// and dropped, never spliced twice.
	doubling := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req FillRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		region, _ := req.Region.Region()
		factory := mc.ConeSamplers(region, req.Seed)
		for _, chunk := range req.Chunks {
			lo, hi := mc.ChunkRange(chunk, req.Total)
			rows, err := mc.FillChunk(r.Context(), factory, chunk, req.Total, req.Region.D)
			if err != nil {
				return
			}
			frame := Chunk{Index: chunk, Lo: lo, Hi: hi, Rows: rows}
			if err := WriteChunk(w, frame); err != nil {
				return
			}
			if err := WriteChunk(w, frame); err != nil {
				return
			}
		}
	}))
	t.Cleanup(doubling.Close)

	c := NewCoordinator(CoordinatorConfig{Workers: []string{doubling.URL}})
	assertPoolIdentical(t, fillPool(t, c), want)
	s := c.Stats()
	if s.DuplicateChunks == 0 {
		t.Fatalf("stats = %+v, want duplicate deliveries counted", s)
	}
	if s.RemoteChunks != int64(mc.Chunks(testPoolTotal)) {
		t.Fatalf("stats = %+v, want each chunk spliced exactly once", s)
	}
}

func TestClusterCancellationMidBuild(t *testing.T) {
	hang := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
	}))
	t.Cleanup(hang.Close)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	c := NewCoordinator(CoordinatorConfig{Workers: []string{hang.URL}})
	start := time.Now()
	_, err := c.FillPool(ctx, testSpec(), testPoolSeed, testPoolTotal)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("FillPool under cancellation = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v to propagate", elapsed)
	}
}

func TestClusterFillPoolRejectsBadInput(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{})
	if _, err := c.FillPool(context.Background(), testSpec(), testPoolSeed, 0); err == nil {
		t.Fatal("FillPool(total=0) succeeded, want error")
	}
	if _, err := c.FillPool(context.Background(), RegionSpec{D: 1}, testPoolSeed, 100); err == nil {
		t.Fatal("FillPool(d=1) succeeded, want error")
	}
}

func TestClusterWorkerRejectsBadRequests(t *testing.T) {
	srv := newWorkerServer(t)
	for name, body := range map[string]string{
		"not json":        "{",
		"zero total":      `{"region":{"d":3},"seed":1,"total":0,"chunks":[0]}`,
		"no chunks":       `{"region":{"d":3},"seed":1,"total":100,"chunks":[]}`,
		"chunk oob":       `{"region":{"d":3},"seed":1,"total":100,"chunks":[5]}`,
		"bad region":      `{"region":{"d":1},"seed":1,"total":100,"chunks":[0]}`,
		"total too large": `{"region":{"d":3},"seed":1,"total":99000000,"chunks":[0]}`,
	} {
		t.Run(name, func(t *testing.T) {
			resp, err := http.Post(srv.URL+"/cluster/v1/fill", "application/json", bytes.NewReader([]byte(body)))
			if err != nil {
				t.Fatalf("POST: %v", err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400", resp.StatusCode)
			}
		})
	}
	resp, err := http.Get(srv.URL + "/cluster/v1/ping")
	if err != nil {
		t.Fatalf("GET ping: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ping status = %d, want 200", resp.StatusCode)
	}
}

// TestClusterWorkerIgnoresDatasetHash: a fill body carrying the
// "dataset_hash" field that older coordinators send is still served, with
// the chunk the local draw makes.
func TestClusterWorkerIgnoresDatasetHash(t *testing.T) {
	srv := newWorkerServer(t)
	body := fmt.Sprintf(`{"dataset_hash":"00000000deadbeef","region":{"d":3,"weights":[0.5,0.3,0.2],"theta":0.35},"seed":%d,"total":%d,"chunks":[1]}`,
		testPoolSeed, testPoolTotal)
	resp, err := http.Post(srv.URL+"/cluster/v1/fill", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	got, err := ReadChunk(resp.Body)
	if err != nil {
		t.Fatalf("ReadChunk: %v", err)
	}
	lo, hi := mc.ChunkRange(1, testPoolTotal)
	if got.Index != 1 || got.Lo != lo || got.Hi != hi {
		t.Fatalf("chunk %d rows [%d, %d), want 1 rows [%d, %d)", got.Index, got.Lo, got.Hi, lo, hi)
	}
	want, err := vecmat.FromData(testPoolD, referencePool(t).Data()[lo*testPoolD:hi*testPoolD])
	if err != nil {
		t.Fatal(err)
	}
	assertPoolIdentical(t, got.Rows, want)
}

// BenchmarkRemoteChunkFill compares a purely local pool build against the
// full remote round trip (serialize, HTTP over loopback, CRC, splice) so the
// perf gate can watch the protocol's overhead.
// TestFillLocalStopsOnChunkError: when one chunk's sampler fails, the local
// fill returns that error and every other worker claims at most one more
// chunk instead of filling the rest of the pool.
func TestFillLocalStopsOnChunkError(t *testing.T) {
	const workers, chunks = 4, 64
	total := chunks * mc.PoolChunk
	region, err := RegionSpec{D: 2}.Region()
	if err != nil {
		t.Fatal(err)
	}
	cone := mc.ConeSamplers(region, testPoolSeed)
	boom := errors.New("sampler failed")
	var failed atomic.Bool
	var late atomic.Int64 // chunks claimed once the failure was visible
	factory := func(chunk int) (sampling.Sampler, error) {
		if chunk == 0 {
			failed.Store(true)
			return nil, boom
		}
		if failed.Load() {
			late.Add(1)
			// Give the failing worker time to publish the stop.
			time.Sleep(2 * time.Millisecond)
		}
		return cone(chunk)
	}
	missing := make([]int, chunks)
	for i := range missing {
		missing[i] = i
	}
	c := NewCoordinator(CoordinatorConfig{LocalWorkers: workers})
	st := &fillState{filled: make([]bool, chunks), remaining: chunks}
	err = c.fillLocal(context.Background(), factory, total, vecmat.New(total, 2), st, missing)
	if !errors.Is(err, boom) {
		t.Fatalf("fillLocal err = %v, want the sampler's error", err)
	}
	if n := late.Load(); n > workers-1 {
		t.Fatalf("%d chunks claimed after the failing chunk, want at most one per other worker (%d)", n, workers-1)
	}
	if got := c.Stats().LocalChunks; got >= chunks-1 {
		t.Fatalf("%d local chunks filled after a failure, want the fill stopped early", got)
	}
}

func BenchmarkRemoteChunkFill(b *testing.B) {
	spec := testSpec()
	const total = 4 * mc.PoolChunk

	b.Run("local", func(b *testing.B) {
		c := NewCoordinator(CoordinatorConfig{})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := c.FillPool(context.Background(), spec, testPoolSeed, total); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("remote", func(b *testing.B) {
		srv := httptest.NewServer((&Worker{}).Handler())
		defer srv.Close()
		c := NewCoordinator(CoordinatorConfig{Workers: []string{srv.URL}})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := c.FillPool(context.Background(), spec, testPoolSeed, total); err != nil {
				b.Fatal(err)
			}
		}
		if s := c.Stats(); s.LocalChunks != 0 {
			b.Fatalf("remote benchmark fell back locally: %+v", s)
		}
	})
}
