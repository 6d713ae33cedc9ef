package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"stablerank/internal/store"
)

// postRaw posts a JSON body and returns the raw response body, for
// bit-identity assertions that a decode/re-encode round trip would launder.
func postRaw(t *testing.T, ts *httptest.Server, path, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.String()
}

// TestRestartDurability is the warm-restart round trip: boot with a data
// dir, upload a dataset, run a pool-building query, restart — the uploaded
// dataset is still registered, and the same query is answered bit-identically
// from a restored pool snapshot without a single pool build.
func TestRestartDurability(t *testing.T) {
	dir := t.TempDir()
	query := `{"dataset":"ind3","samples":5000,"queries":[{"op":"toph","h":3}]}`

	s1, ts1 := newTestServer(t, func(c *Config) { c.DataDir = dir })
	resp, err := http.Post(ts1.URL+"/datasets/up3", "text/csv",
		strings.NewReader("id,a,b,c\nx,1,2,3\ny,3,2,1\nz,2,3,1\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload = %d", resp.StatusCode)
	}
	code, cold := postRaw(t, ts1, "/v1/query", query)
	if code != http.StatusOK {
		t.Fatalf("cold query = %d: %s", code, cold)
	}
	if w := s1.snapshots.writes.Load(); w < 1 {
		t.Fatalf("snapshot writes after cold query = %d, want >= 1", w)
	}
	s1.Close()
	ts1.Close()

	s2, ts2 := newTestServer(t, func(c *Config) { c.DataDir = dir })
	var listing struct {
		Datasets []struct {
			Name string `json:"name"`
		} `json:"datasets"`
	}
	if code, _ := get(t, ts2, "/datasets", &listing); code != http.StatusOK {
		t.Fatalf("datasets = %d", code)
	}
	names := map[string]bool{}
	for _, d := range listing.Datasets {
		names[d.Name] = true
	}
	if !names["up3"] {
		t.Fatalf("uploaded dataset lost across restart; have %v", listing.Datasets)
	}
	code, warm := postRaw(t, ts2, "/v1/query", query)
	if code != http.StatusOK {
		t.Fatalf("warm query = %d: %s", code, warm)
	}
	if warm != cold {
		t.Errorf("warm restart changed the response:\ncold: %s\nwarm: %s", cold, warm)
	}
	if h := s2.snapshots.hits.Load(); h < 1 {
		t.Errorf("snapshot hits after warm query = %d, want >= 1", h)
	}
	stats, _, _, _, _ := s2.analyzers.snapshot()
	found := false
	for _, st := range stats {
		if !strings.HasPrefix(st.Key, "ind3@") {
			continue
		}
		found = true
		if st.PoolBuilds != 0 {
			t.Errorf("warm analyzer PoolBuilds = %d, want 0", st.PoolBuilds)
		}
		if st.PoolRestores != 1 {
			t.Errorf("warm analyzer PoolRestores = %d, want 1", st.PoolRestores)
		}
		if st.SnapshotKey == "" {
			t.Error("warm analyzer has no snapshot key")
		}
		if st.PoolBytes <= int64(len(st.SnapshotKey)) {
			t.Errorf("PoolBytes = %d does not cover matrix + key", st.PoolBytes)
		}
	}
	if !found {
		t.Fatalf("no ind3 analyzer in stats: %+v", stats)
	}
	var statsz struct {
		Store struct {
			Enabled        bool  `json:"enabled"`
			Bytes          int64 `json:"bytes"`
			DatasetsLoaded int   `json:"datasets_loaded"`
			Snapshots      struct {
				Hits int64 `json:"hits"`
			} `json:"snapshots"`
		} `json:"store"`
	}
	if code, _ := get(t, ts2, "/statsz", &statsz); code != http.StatusOK {
		t.Fatalf("statsz = %d", code)
	}
	if !statsz.Store.Enabled || statsz.Store.Bytes < 1 || statsz.Store.DatasetsLoaded < 1 || statsz.Store.Snapshots.Hits < 1 {
		t.Errorf("statsz store section = %+v", statsz.Store)
	}
}

// TestCorruptSnapshotQuarantine damages a persisted pool snapshot on disk and
// checks the restart degrades gracefully: the query is answered identically
// (pool rebuilt), the bad file is quarantined for inspection, and a fresh
// snapshot is written back — never a crash, never a corrupt answer.
func TestCorruptSnapshotQuarantine(t *testing.T) {
	dir := t.TempDir()
	query := `{"dataset":"ind3","samples":5000,"queries":[{"op":"toph","h":3}]}`

	s1, ts1 := newTestServer(t, func(c *Config) { c.DataDir = dir })
	code, cold := postRaw(t, ts1, "/v1/query", query)
	if code != http.StatusOK {
		t.Fatalf("cold query = %d", code)
	}
	s1.Close()
	ts1.Close()

	pools, err := filepath.Glob(filepath.Join(dir, store.NSPools, "*.kv"))
	if err != nil || len(pools) != 1 {
		t.Fatalf("pool snapshot files = %v, %v", pools, err)
	}
	raw, err := os.ReadFile(pools[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xFF
	if err := os.WriteFile(pools[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, ts2 := newTestServer(t, func(c *Config) { c.DataDir = dir })
	code, rebuilt := postRaw(t, ts2, "/v1/query", query)
	if code != http.StatusOK {
		t.Fatalf("query over corrupt snapshot = %d: %s", code, rebuilt)
	}
	if rebuilt != cold {
		t.Errorf("rebuild changed the response:\ncold: %s\nrebuilt: %s", cold, rebuilt)
	}
	if q := s2.snapshots.quarantined.Load(); q != 1 {
		t.Errorf("quarantined = %d, want 1", q)
	}
	if w := s2.snapshots.writes.Load(); w < 1 {
		t.Errorf("snapshot not re-written after rebuild: writes = %d", w)
	}
	quarantined, _ := filepath.Glob(filepath.Join(dir, store.NSPools, "*.corrupt"))
	if len(quarantined) != 1 {
		t.Errorf("quarantined files = %v, want exactly one", quarantined)
	}
}

// TestJobResumeAcrossRestart seeds the store with a mid-flight job — a
// running record holding its request — and boots a server over it: the job
// must be re-enqueued, run again, and complete with a result identical to
// an uninterrupted run.
func TestJobResumeAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	query := `{"dataset":"fig1","queries":[{"op":"enumerate","limit":11}]}`

	s1, ts1 := newTestServer(t, func(c *Config) { c.DataDir = dir })
	var sync queryResponse
	if code, _ := postJSON(t, ts1.URL, "/v1/query", query, &sync); code != http.StatusOK {
		t.Fatalf("sync query = %d", code)
	}
	if len(sync.Results[0].Rankings) != 11 {
		t.Fatalf("sync rankings = %d, want 11", len(sync.Results[0].Rankings))
	}
	s1.Close()
	ts1.Close()

	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	recBytes, err := json.Marshal(jobRecord{
		ID:      "j7",
		State:   string(jobRunning),
		Created: time.Now(),
		Request: &queryRequest{Dataset: "fig1", Queries: []querySpec{{Op: "enumerate", Limit: 11}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(store.NSJobs, "j7", recBytes); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	s2, ts2 := newTestServer(t, func(c *Config) { c.DataDir = dir })
	done := pollJob(t, ts2, "j7", 10*time.Second)
	if done.Status != string(jobDone) || done.Result == nil {
		t.Fatalf("restored job = %+v", done)
	}
	if s2.persister.restoredJobs.Load() != 1 {
		t.Errorf("restored jobs = %d, want 1", s2.persister.restoredJobs.Load())
	}
	gotJSON, _ := json.Marshal(done.Result)
	wantJSON, _ := json.Marshal(&sync)
	if string(gotJSON) != string(wantJSON) {
		t.Errorf("re-run job result differs from uninterrupted run:\ngot:  %s\nwant: %s", gotJSON, wantJSON)
	}
	// Fresh ids must continue past restored ones.
	next, code := submitJob(t, ts2, `{"dataset":"fig1","queries":[{"op":"toph","h":1}]}`)
	if code != http.StatusAccepted || next.ID != "j8" {
		t.Errorf("post-restore submit = %d %q, want id j8", code, next.ID)
	}
}

// TestCloseKeepsRunningJobRecords pins the shutdown ordering contract:
// Close first stops the job workers — a running job's persisted record stays
// "running" with its request, so the next boot re-runs it — and only then
// flushes and closes the store, so everything written during the drain is
// durable when Close returns.
func TestCloseKeepsRunningJobRecords(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, func(c *Config) {
		c.DataDir = dir
		c.JobWorkers = 1
		c.DefaultSampleCount = 30_000
	})
	addDeepDataset(t, s)

	// An exhaustive 4D enumeration: runs until cancelled.
	j, code := submitJob(t, ts, `{"dataset":"deep","queries":[{"op":"enumerate"}]}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	waitJobStatus(t, ts, j.ID, jobRunning, 10*time.Second)
	ts.Close()
	s.Close()

	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	recBytes, err := st.Get(store.NSJobs, j.ID)
	if err != nil {
		t.Fatalf("job record after Close: %v", err)
	}
	var rec jobRecord
	if err := json.Unmarshal(recBytes, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.State != string(jobRunning) {
		t.Errorf("persisted state after shutdown = %q, want running (resumable)", rec.State)
	}
	if rec.Request == nil {
		t.Error("persisted record carries no request to recompile")
	}
}

// TestBootReclaimsRetiredCheckpoints: a data dir written by a version that
// checkpointed jobs keeps entries under the retired checkpoints namespace;
// the first boot deletes them, so they stop counting against
// -max-store-bytes.
func TestBootReclaimsRetiredCheckpoints(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"j3", "j4"} {
		if err := st.Put(retiredCheckpoints, id, []byte(`{"id":"`+id+`","rows":[]}`)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	s, err := New(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	entries, err := s.store.Entries(retiredCheckpoints)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("%d retired checkpoint entries after boot, want 0", len(entries))
	}
	if b := s.store.SizeBytes(); b != 0 {
		t.Fatalf("store holds %d bytes after boot, want 0", b)
	}
}
