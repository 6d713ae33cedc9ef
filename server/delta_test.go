package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"stablerank"
	"stablerank/internal/store"
)

// patchRaw sends a PATCH with a JSON delta body and returns status + body.
func patchRaw(t *testing.T, base, name, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPatch, base+"/v1/datasets/"+name, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(raw)
}

// resident returns the analyzer the cache holds for key, nil without one.
func (p *analyzerPool) resident(key analyzerKey) *stablerank.Analyzer {
	p.mu.Lock()
	defer p.mu.Unlock()
	if el, ok := p.entries[key]; ok {
		return el.Value.(*poolItem).a
	}
	return nil
}

// TestPatchDatasetRepointsAnalyzer is the end-to-end delta flow: a warmed
// analyzer and populated cache, then a PATCH, then the accounting — the
// PATCH touches no analyzer, the next read re-points the resident one to
// the registry's mutated dataset on the same pool (no rebuild), only the
// mutated dataset's cache entries die, and /statsz's deltas section
// reflects all of it.
func TestPatchDatasetRepointsAnalyzer(t *testing.T) {
	s, ts := newTestServer(t, nil)

	// Warm: one Monte-Carlo query on ind3 (builds its pool and caches the
	// response) and one on fig1 (a second dataset's cache entry that must
	// survive the PATCH).
	if code, _ := get(t, ts, "/v1/ind3/verify?weights=1,1,1&samples=5000", nil); code != http.StatusOK {
		t.Fatalf("warm ind3 = %d", code)
	}
	if code, _ := get(t, ts, "/v1/fig1/verify?weights=1,1", nil); code != http.StatusOK {
		t.Fatalf("warm fig1 = %d", code)
	}
	key := analyzerKey{dataset: "ind3", region: "full", seed: 1, samples: 5000}
	warm := s.analyzers.resident(key)
	buildsBefore := s.analyzers.builds.Load()

	var pr deltaResponse
	code, body := patchRaw(t, ts.URL, "ind3",
		`{"deltas":[{"op":"update","id":"i0","attrs":[9,9,9]},{"op":"add","id":"neo","attrs":[1,2,3]}]}`)
	if code != http.StatusOK {
		t.Fatalf("patch = %d: %s", code, body)
	}
	if err := json.Unmarshal([]byte(body), &pr); err != nil {
		t.Fatalf("patch body: %v\n%s", err, body)
	}
	if pr.Version != 1 || pr.Applied != 2 || pr.N != 13 {
		t.Fatalf("patch response = %+v, want version 1, applied 2, n 13", pr)
	}
	if strings.Contains(body, `"analyzers_`) || strings.Contains(body, `"spliced"`) {
		t.Fatalf("patch response still reports analyzer or splice counters: %s", body)
	}
	if pr.CacheInvalidated < 1 || pr.CacheSurvived < 1 {
		t.Fatalf("cache invalidated %d / survived %d, want >= 1 each", pr.CacheInvalidated, pr.CacheSurvived)
	}
	if s.analyzers.resident(key) != warm {
		t.Fatal("the PATCH touched the resident analyzer")
	}

	// The post-delta query answers against the new dataset from a view of
	// the resident analyzer: no new analyzer or pool build, a cache miss
	// (the old entry died), and a 13-item ranking that includes the added
	// item.
	var after struct {
		Ranking []itemRef `json:"ranking"`
	}
	code, hdr := get(t, ts, "/v1/ind3/verify?weights=1,1,1&samples=5000", &after)
	if code != http.StatusOK {
		t.Fatalf("post-patch verify = %d", code)
	}
	if hdr.Get("X-Cache") != "miss" {
		t.Fatalf("post-patch verify X-Cache = %q, want miss", hdr.Get("X-Cache"))
	}
	if got := s.analyzers.builds.Load(); got != buildsBefore {
		t.Fatalf("PATCH triggered %d analyzer builds, want 0", got-buildsBefore)
	}
	ds, _, _, _ := s.registry.Get("ind3")
	if a := s.analyzers.resident(key); a.Dataset() != ds || a.PoolBuilds() != 1 {
		t.Fatalf("resident analyzer holds the registry's dataset: %v, pool builds %d; want true, 1", a.Dataset() == ds, a.PoolBuilds())
	}
	if len(after.Ranking) != 13 {
		t.Fatalf("post-patch ranking has %d items, want 13", len(after.Ranking))
	}
	found := false
	for _, ref := range after.Ranking {
		found = found || ref.ID == "neo"
	}
	if !found {
		t.Fatal("added item missing from the post-patch ranking")
	}
	// The fig1 entry survived: an immediate repeat is a cache hit.
	if _, hdr := get(t, ts, "/v1/fig1/verify?weights=1,1", nil); hdr.Get("X-Cache") != "hit" {
		t.Fatalf("fig1 X-Cache = %q, want hit (entry should survive another dataset's PATCH)", hdr.Get("X-Cache"))
	}

	var stats struct {
		Deltas map[string]int64 `json:"deltas"`
	}
	if code, _ := get(t, ts, "/statsz", &stats); code != http.StatusOK {
		t.Fatalf("statsz = %d", code)
	}
	d := stats.Deltas
	if d["applied"] != 2 || d["cache_invalidated"] < 1 || d["cache_survivals"] < 1 {
		t.Fatalf("statsz deltas = %+v, want applied 2, cache accounting >= 1 each", d)
	}
	if _, ok := d["analyzers_migrated"]; ok {
		t.Fatalf("statsz deltas still report migrations: %+v", d)
	}
}

// TestReplaceThenPatchRepointsAnalyzer: an analyzer left resident by a
// same-dimension replacement (Add bumps the generation but never purges the
// cache) keeps serving its key after a later PATCH, re-pointed to the
// replaced-and-patched dataset on its own pool, and answers byte for byte
// as a fresh server over that dataset does.
func TestReplaceThenPatchRepointsAnalyzer(t *testing.T) {
	s, ts := newTestServer(t, nil)
	const path = "/v1/ind3/verify?weights=1,1,1"
	if code, _ := get(t, ts, path, nil); code != http.StatusOK {
		t.Fatalf("warm ind3 = %d", code)
	}
	// Replace ind3 wholesale: generation 1 -> 2, the gen-1 analyzer stays
	// resident.
	if err := s.registry.Add("ind3", seedDataset(12, 3, 99)); err != nil {
		t.Fatal(err)
	}
	if code, body := patchRaw(t, ts.URL, "ind3", `{"deltas":[{"op":"update","id":"i0","attrs":[9,9,9]}]}`); code != http.StatusOK {
		t.Fatalf("patch = %d: %s", code, body)
	}
	read := func(ts *httptest.Server) string {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("post-patch verify = %d, %v: %s", resp.StatusCode, err, body)
		}
		return string(body)
	}
	got := read(ts)
	stats, builds, _, _ := s.analyzers.snapshot()
	if builds != 1 || len(stats) != 1 || stats[0].PoolBuilds != 1 || stats[0].Key != "ind3@2.1|full|seed=1|n=20000" {
		t.Fatalf("after replace + PATCH + read: %d analyzer builds, resident %+v; want 1 build, one ind3@2.1 row with 1 pool build", builds, stats)
	}
	ds, _, _, _ := s.registry.Get("ind3")
	if a := s.analyzers.resident(analyzerKey{dataset: "ind3", region: "full", seed: 1, samples: 20_000}); a.Dataset() != ds {
		t.Fatal("the resident analyzer does not hold the registry's dataset")
	}
	reg := NewRegistry()
	if err := reg.Add("ind3", ds); err != nil {
		t.Fatal(err)
	}
	_, fresh := newTestServer(t, func(c *Config) { c.Registry = reg })
	if want := read(fresh); got != want {
		t.Fatalf("after replace + PATCH:\n%s\nfresh server:\n%s", got, want)
	}
}

// TestReplaceDimensionDropsOldEntries: after a replacement changes a
// dataset's dimension, the first analyzer built at the new dimension drops
// the dataset's region-restricted entries of the old one, which no request
// can reach (their weights no longer validate), so /statsz lists no
// old-dimension row after a read and a PATCH.
func TestReplaceDimensionDropsOldEntries(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) { c.DefaultSampleCount = 2000 })
	for _, path := range []string{
		"/v1/ind3/verify?weights=1,1,1&theta=0.3",
		"/v1/ind3/verify?weights=1,2,3&cosine=0.99",
	} {
		if code, _ := get(t, ts, path, nil); code != http.StatusOK {
			t.Fatalf("warm %s = %d", path, code)
		}
	}
	if err := s.registry.Add("ind3", seedDataset(12, 4, 99)); err != nil {
		t.Fatal(err)
	}
	if code, _ := get(t, ts, "/v1/ind3/verify?weights=1,1,1,1&cosine=0.99", nil); code != http.StatusOK {
		t.Fatalf("4-d read = %d", code)
	}
	if code, body := patchRaw(t, ts.URL, "ind3", `{"deltas":[{"op":"update","id":"i0","attrs":[9,9,9,9]}]}`); code != http.StatusOK {
		t.Fatalf("patch = %d: %s", code, body)
	}
	var stats struct {
		Analyzers struct {
			Resident []analyzerStat `json:"resident"`
		} `json:"analyzers"`
	}
	if code, _ := get(t, ts, "/statsz", &stats); code != http.StatusOK {
		t.Fatalf("statsz = %d", code)
	}
	rows := 0
	for _, st := range stats.Analyzers.Resident {
		if strings.HasPrefix(st.Key, "ind3@") {
			rows++
			if !strings.HasPrefix(st.Key, "ind3@2.0|cosine:1,1,1,1;") {
				t.Errorf("resident row %s after the 3 -> 4 replacement", st.Key)
			}
		}
	}
	if rows != 1 {
		t.Errorf("%d ind3 rows resident, want the one 4-d row: %+v", rows, stats.Analyzers.Resident)
	}
}

// TestPatchDatasetValidation pins the PATCH error surface, including batch
// atomicity: one bad op rejects the whole batch and nothing changes.
func TestPatchDatasetValidation(t *testing.T) {
	s, ts := newTestServer(t, nil)
	cases := []struct {
		name, dataset, body string
		want                int
	}{
		{"unknown dataset", "nope", `{"deltas":[{"op":"remove","id":"x"}]}`, http.StatusNotFound},
		{"malformed json", "ind3", `{"deltas":[`, http.StatusBadRequest},
		{"unknown field", "ind3", `{"deltas":[{"op":"remove","id":"x","extra":1}]}`, http.StatusBadRequest},
		{"trailing data", "ind3", `{"deltas":[{"op":"remove","id":"i0"}]} {"more":1}`, http.StatusBadRequest},
		{"trailing bracket", "ind3", `{"deltas":[{"op":"remove","id":"i0"}]}]`, http.StatusBadRequest},
		{"trailing brace", "ind3", `{"deltas":[{"op":"remove","id":"i0"}]}}`, http.StatusBadRequest},
		{"empty batch", "ind3", `{"deltas":[]}`, http.StatusBadRequest},
		{"bad op", "ind3", `{"deltas":[{"op":"upsert","id":"i0","attrs":[1,2,3]}]}`, http.StatusBadRequest},
		{"missing id", "ind3", `{"deltas":[{"op":"remove"}]}`, http.StatusBadRequest},
		{"wrong dimension", "ind3", `{"deltas":[{"op":"update","id":"i0","attrs":[1,2]}]}`, http.StatusBadRequest},
		{"remove with attrs", "ind3", `{"deltas":[{"op":"remove","id":"i0","attrs":[1,2,3]}]}`, http.StatusBadRequest},
		{"unknown item", "ind3", `{"deltas":[{"op":"update","id":"i0","attrs":[5,5,5]},{"op":"remove","id":"ghost"}]}`, http.StatusBadRequest},
		{"duplicate add", "ind3", `{"deltas":[{"op":"add","id":"i0","attrs":[1,2,3]}]}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		if code, body := patchRaw(t, ts.URL, tc.dataset, tc.body); code != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, code, tc.want, body)
		}
	}
	// Atomicity: the valid first op of the "unknown item" batch did not land.
	if _, _, ver, _ := s.registry.Get("ind3"); ver != 0 {
		t.Fatalf("dataset version = %d after only rejected batches, want 0", ver)
	}
	if got := s.deltasApplied.Load(); got != 0 {
		t.Fatalf("deltas applied counter = %d after only rejected batches", got)
	}
}

// TestDriftStream subscribes to a dataset's drift feed, applies a PATCH, and
// requires the per-delta drift lines to arrive on the open stream.
func TestDriftStream(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, err := http.Get(ts.URL + "/v1/ind3/drift")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("drift Content-Type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatalf("no hello line: %v", sc.Err())
	}
	var hello driftHello
	if err := json.Unmarshal(sc.Bytes(), &hello); err != nil {
		t.Fatalf("hello line: %v\n%s", err, sc.Text())
	}
	if hello.Dataset != "ind3" || hello.N != 12 || !hello.Streaming {
		t.Fatalf("hello = %+v", hello)
	}

	// The hello line is written after subscribing, so this PATCH must land in
	// the live stream.
	done := make(chan struct{})
	go func() {
		defer close(done)
		code, body := patchRaw(t, ts.URL, "ind3",
			`{"deltas":[{"op":"update","id":"i1","attrs":[8,8,8]},{"op":"remove","id":"i2"}]}`)
		if code != http.StatusOK {
			t.Errorf("patch = %d: %s", code, body)
		}
	}()

	var events []driftEvent
	for len(events) < 2 && sc.Scan() {
		var ev driftEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("drift line: %v\n%s", err, sc.Text())
		}
		events = append(events, ev)
	}
	if len(events) < 2 {
		t.Fatalf("got %d drift events, want 2 (%v)", len(events), sc.Err())
	}
	<-done
	if events[0].Op != "update" || events[0].ID != "i1" || events[1].Op != "remove" || events[1].ID != "i2" {
		t.Fatalf("drift events = %+v", events)
	}
	for _, ev := range events {
		if ev.Dataset != "ind3" || ev.Version != 1 || ev.PoolRows <= 0 || ev.RankRows <= 0 {
			t.Fatalf("drift event = %+v, want dataset ind3, version 1, positive rows", ev)
		}
	}
	// Removing an item must rank it below everything afterwards: its mean
	// rank after the delta is n+1 of the post-delta dataset.
	if rm := events[1]; rm.MeanRankAfter <= rm.MeanRankBefore {
		t.Fatalf("removed item mean rank before %v, after %v — removal should sink it", rm.MeanRankBefore, rm.MeanRankAfter)
	}
}

// TestDriftPhantomItem: an item added and removed within one PATCH is in
// neither endpoint dataset, so its drift events carry the rank rows but no
// rank movement, though the PATCH shrinks the dataset by one.
func TestDriftPhantomItem(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, err := http.Get(ts.URL + "/v1/ind3/drift")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatalf("no hello line: %v", sc.Err())
	}
	if code, body := patchRaw(t, ts.URL, "ind3",
		`{"deltas":[{"op":"add","id":"x","attrs":[9,9,9]},{"op":"remove","id":"i2"},{"op":"remove","id":"x"}]}`); code != http.StatusOK {
		t.Fatalf("patch = %d: %s", code, body)
	}
	var events []driftEvent
	for len(events) < 3 && sc.Scan() {
		var ev driftEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("drift line: %v\n%s", err, sc.Text())
		}
		events = append(events, ev)
	}
	if len(events) < 3 {
		t.Fatalf("got %d drift events, want 3 (%v)", len(events), sc.Err())
	}
	for _, ev := range []driftEvent{events[0], events[2]} {
		if ev.ID != "x" || ev.RankRows <= 0 {
			t.Fatalf("drift event = %+v, want x with positive rank rows", ev)
		}
		if ev.RankChanged != 0 || ev.RankImproved != 0 || ev.RankWorsened != 0 || ev.MaxAbsRankShift != 0 ||
			ev.MeanAbsRankShift != 0 || ev.MeanRankBefore != 0 || ev.MeanRankAfter != 0 {
			t.Fatalf("item in neither dataset shifted rank: %+v", ev)
		}
	}
	if rm := events[1]; rm.ID != "i2" || rm.RankChanged == 0 {
		t.Fatalf("removed i2 should sink: %+v", rm)
	}
}

// TestDriftOutlivesRequestTimeout: the drift subscription is exempt from
// the per-request deadline — an event published long after RequestTimeout
// still arrives — yet a client hang-up still ends it without leaking the
// handler goroutine.
func TestDriftOutlivesRequestTimeout(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) { c.RequestTimeout = 50 * time.Millisecond })
	before := runtime.NumGoroutine()
	resp, err := http.Get(ts.URL + "/v1/ind3/drift")
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatalf("no hello line: %v", sc.Err())
	}
	time.Sleep(200 * time.Millisecond) // four request timeouts
	if code, body := patchRaw(t, ts.URL, "ind3", `{"deltas":[{"op":"update","id":"i1","attrs":[8,8,8]}]}`); code != http.StatusOK {
		t.Fatalf("patch = %d: %s", code, body)
	}
	if !sc.Scan() {
		t.Fatalf("drift stream ended before the event: %v", sc.Err())
	}
	var ev driftEvent
	if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
		t.Fatalf("drift line: %v\n%s", err, sc.Text())
	}
	if ev.Dataset != "ind3" || ev.Op != "update" || ev.ID != "i1" {
		t.Fatalf("drift event = %+v", ev)
	}

	resp.Body.Close()
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked after the client left: %d -> %d", before, after)
	}
}

// TestPatchClusterRouting pins the cluster contract: a PATCH serializes at
// the dataset's ring owner, and the forwarded marker keeps the hop from
// looping (a forwarded PATCH always applies locally).
func TestPatchClusterRouting(t *testing.T) {
	nodes := startCluster(t, 2, clusterOpts{peered: true})
	owner := nodes[0].srv.cluster.ring.Owner("dataset:ind3")
	var ownerNode, otherNode *clusterNode
	for _, n := range nodes {
		if n.url == owner {
			ownerNode = n
		} else {
			otherNode = n
		}
	}
	if ownerNode == nil || otherNode == nil {
		t.Fatalf("owner %q not among nodes", owner)
	}

	body := `{"deltas":[{"op":"update","id":"i0","attrs":[7,7,7]}]}`
	req, err := http.NewRequest(http.MethodPatch, otherNode.url+"/v1/datasets/ind3", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("routed patch = %d", resp.StatusCode)
	}
	if sb := resp.Header.Get(servedByHeader); sb != owner {
		t.Fatalf("patch served by %q, want owner %q", sb, owner)
	}
	if _, _, ver, _ := ownerNode.srv.registry.Get("ind3"); ver != 1 {
		t.Fatalf("owner version = %d, want 1", ver)
	}
	if _, _, ver, _ := otherNode.srv.registry.Get("ind3"); ver != 0 {
		t.Fatalf("non-owner version = %d, want 0 (PATCH must route away)", ver)
	}

	// Loop guard: a request already carrying the forwarded marker is applied
	// locally no matter what the ring says.
	req, err = http.NewRequest(http.MethodPatch, otherNode.url+"/v1/datasets/ind3", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(forwardedHeader, "test")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded patch = %d", resp.StatusCode)
	}
	if sb := resp.Header.Get(servedByHeader); sb != otherNode.url {
		t.Fatalf("forwarded patch served by %q, want %q", sb, otherNode.url)
	}
	if _, _, ver, _ := otherNode.srv.registry.Get("ind3"); ver != 1 {
		t.Fatalf("non-owner version after forwarded patch = %d, want 1", ver)
	}
}

// TestSnapshotSweepAtBoot seeds the pool-snapshot namespace with entries no
// current analyzer can load — the old content-hash key format and a stale
// layout version — and requires boot to reclaim exactly those.
func TestSnapshotSweepAtBoot(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	keep := fmt.Sprintf("d=3|full|seed=42|n=5000|layout=%d", stablerank.PoolLayoutVersion)
	stale := []string{
		"a1b2c3d4|full|seed=42|n=5000|layout=1",                                        // pre-delta format: content-hash keyed
		fmt.Sprintf("d=3|full|seed=7|n=100|layout=%d", stablerank.PoolLayoutVersion-1), // old codec layout
	}
	for _, key := range append(stale, keep) {
		if err := st.Put(store.NSPools, key, []byte("snapshot-bytes")); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	s, ts := newTestServer(t, func(c *Config) { c.DataDir = dir })
	var stats struct {
		Store struct {
			Snapshots struct {
				Swept int64 `json:"swept"`
			} `json:"snapshots"`
		} `json:"store"`
	}
	if code, _ := get(t, ts, "/statsz", &stats); code != http.StatusOK {
		t.Fatalf("statsz = %d", code)
	}
	if got := stats.Store.Snapshots.Swept; got != int64(len(stale)) {
		t.Fatalf("swept = %d, want %d", got, len(stale))
	}
	entries, err := s.store.Entries(store.NSPools)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Key != keep {
		t.Fatalf("surviving entries = %+v, want only %q", entries, keep)
	}
}

// TestDriftStreamUnknownDataset: the stream 404s before any NDJSON framing.
func TestDriftStreamUnknownDataset(t *testing.T) {
	_, ts := newTestServer(t, nil)
	if code, _ := get(t, ts, "/v1/ghost/drift", nil); code != http.StatusNotFound {
		t.Fatalf("drift on unknown dataset = %d, want 404", code)
	}
}

// FuzzApplyDelta fuzzes the PATCH decode surface and, when a body decodes,
// pushes the deltas through the real apply path: whatever JSON arrives, the
// server must either reject it cleanly or mutate the dataset atomically —
// never panic, never corrupt.
func FuzzApplyDelta(f *testing.F) {
	f.Add([]byte(`{"deltas":[{"op":"add","id":"x","attrs":[1,2,3]}]}`))
	f.Add([]byte(`{"deltas":[{"op":"update","id":"i0","attrs":[0.5,0.5,0.5]},{"op":"remove","id":"i1"}]}`))
	f.Add([]byte(`{"deltas":[{"op":"add","id":"i0","attrs":[1,2,3]},{"op":"add","id":"i0","attrs":[1,2,3]}]}`))
	f.Add([]byte(`{"deltas":[{"op":"update","id":"i0","attrs":[1e999,0,0]}]}`))
	f.Add([]byte(`{"deltas":[{"op":"remove","id":""}]}`))
	f.Add([]byte(`{"deltas":[{"op":"frobnicate","id":"x"}]}`))
	f.Add([]byte(`{"deltas":[]}`))
	f.Add([]byte(`{"deltas":[{"op":"remove","id":"i0"}]} trailing`))
	f.Add([]byte(`{"deltas":[{"op":"remove","id":"i0"}]}]`))
	f.Add([]byte(`{"deltas":[{"op":"remove","id":"i0"}]}}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		deltas, err := decodeDeltas(data, 3, 64)
		if err != nil {
			return
		}
		if len(deltas) == 0 || len(deltas) > 64 {
			t.Fatalf("decode accepted %d deltas outside (0, 64]", len(deltas))
		}
		if !json.Valid(data) {
			t.Fatalf("decode accepted a body that is not one JSON value: %q", data)
		}
		base := seedDataset(12, 3, 7)
		nds, err := stablerank.ApplyDeltas(base, deltas...)
		if err != nil {
			return // semantically invalid (unknown id, duplicate add, ...) — rejected atomically
		}
		if nds.D() != 3 {
			t.Fatalf("apply changed dimension to %d", nds.D())
		}
		// The mutated dataset must be rebuildable item by item: the delta
		// path's output is always a well-formed dataset.
		check := stablerank.MustDataset(3)
		for i := 0; i < nds.N(); i++ {
			it := nds.Item(i)
			if err := check.Add(it.ID, it.Attrs); err != nil {
				t.Fatalf("delta output not rebuildable at item %d: %v", i, err)
			}
		}
		if check.Hash() != nds.Hash() {
			t.Fatalf("rebuilt hash diverged")
		}
	})
}

// seedDataset mirrors the test fixture ind3 without touching the registry.
func seedDataset(n, d int, seed int64) *stablerank.Dataset {
	return stablerank.Independent(rand.New(rand.NewSource(seed)), n, d)
}

// TestPatchThenTopHMatchesFresh: a top-h answered after a PATCH, by the
// analyzer the PATCH derived from one whose enumeration was already
// memoized, is byte-identical to a fresh server's answer on the patched
// dataset, for the Monte-Carlo (ind3) and the exact 2D (fig1) engines.
func TestPatchThenTopHMatchesFresh(t *testing.T) {
	s, ts := newTestServer(t, nil)
	topH := func(base, name string) string {
		t.Helper()
		resp, err := http.Post(base+"/v1/query", "application/json",
			strings.NewReader(`{"dataset":"`+name+`","samples":2000,"queries":[{"op":"toph","h":6},{"op":"above","s":0.01}]}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("toph on %s = %d, %v: %s", name, resp.StatusCode, err, body)
		}
		return string(body)
	}
	patches := map[string]string{
		"ind3": `{"deltas":[{"op":"update","id":"i0","attrs":[0.9,0.1,0.5]},{"op":"remove","id":"i4"},{"op":"add","id":"neo","attrs":[0.4,0.6,0.5]}]}`,
		"fig1": `{"deltas":[{"op":"update","id":"t2","attrs":[0.6,0.75]},{"op":"add","id":"t6","attrs":[0.75,0.6]}]}`,
	}
	for _, name := range []string{"ind3", "fig1"} {
		before := topH(ts.URL, name)
		if code, body := patchRaw(t, ts.URL, name, patches[name]); code != http.StatusOK {
			t.Fatalf("patch %s = %d: %s", name, code, body)
		}
		after := topH(ts.URL, name)
		ds, _, _, _ := s.registry.Get(name)
		reg := NewRegistry()
		if err := reg.Add(name, ds); err != nil {
			t.Fatal(err)
		}
		_, fresh := newTestServer(t, func(c *Config) { c.Registry = reg })
		if want := topH(fresh.URL, name); after != want {
			t.Fatalf("%s after PATCH:\n%s\nfresh server:\n%s", name, after, want)
		}
		if after == before {
			t.Fatalf("%s: the PATCH left the answer unchanged; the test shows nothing", name)
		}
	}
}

// TestPatchDriftMatchesLibrary pins the PATCH drift source bit for bit: the
// published events equal New(oldDS, WithSeed, WithSampleCount).ApplyDelta(
// deltas...).LastDrift(DriftSamples) at the seed and sample count of the
// resident full-space key that sorts first, whatever dataset version that
// analyzer last answered for, and at DefaultSeed and DriftSamples (the
// DriftOf fallback) with nothing resident.
func TestPatchDriftMatchesLibrary(t *testing.T) {
	patches := []string{
		`{"deltas":[{"op":"update","id":"i0","attrs":[0.9,0.1,0.5]},{"op":"remove","id":"i4"}]}`,
		`{"deltas":[{"op":"add","id":"neo","attrs":[0.4,0.6,0.5]},{"op":"update","id":"i1","attrs":[0.2,0.8,0.3]}]}`,
	}
	for _, tc := range []struct {
		name          string
		warm, replace bool
		patches       []string
	}{
		{"two PATCHes without a read", true, false, patches},
		{"replacement then PATCH", true, true, patches[:1]},
		{"DriftOf fallback", false, false, patches[:1]},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := newTestServer(t, nil)
			seed, samples := s.cfg.DefaultSeed, s.cfg.DriftSamples
			if tc.warm {
				// The cone key sorts before every full-space key and the
				// seed-5 key after the seed-3 one: the seed-3 key prices.
				seed, samples = 3, 5000
				for _, q := range []string{"cosine=0.99&seed=3&samples=5000", "seed=5&samples=4000", "seed=3&samples=5000"} {
					if code, _ := get(t, ts, "/v1/ind3/verify?weights=1,1,1&"+q, nil); code != http.StatusOK {
						t.Fatalf("warm %s = %d", q, code)
					}
				}
			}
			if tc.replace {
				if err := s.registry.Add("ind3", seedDataset(12, 3, 99)); err != nil {
					t.Fatal(err)
				}
			}
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/ind3/drift", nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			sc := bufio.NewScanner(resp.Body)
			if !sc.Scan() {
				t.Fatalf("no hello line: %v", sc.Err())
			}
			for i, body := range tc.patches {
				oldDS, _, _, _ := s.registry.Get("ind3")
				deltas, err := decodeDeltas([]byte(body), oldDS.D(), maxDeltaOps)
				if err != nil {
					t.Fatal(err)
				}
				code, out := patchRaw(t, ts.URL, "ind3", body)
				var pr deltaResponse
				if code != http.StatusOK || json.Unmarshal([]byte(out), &pr) != nil {
					t.Fatalf("patch %d = %d: %s", i, code, out)
				}
				a, err := stablerank.New(oldDS, stablerank.WithSeed(seed), stablerank.WithSampleCount(samples))
				if err != nil {
					t.Fatal(err)
				}
				if a, err = a.ApplyDelta(ctx, deltas...); err != nil {
					t.Fatal(err)
				}
				drifts, err := a.LastDrift(ctx, s.cfg.DriftSamples)
				if err != nil {
					t.Fatal(err)
				}
				for j, d := range drifts {
					want := driftEvent{Dataset: "ind3", Generation: pr.Generation, Version: pr.Version,
						Op: d.Op.String(), ID: d.ID, PoolRows: d.PoolRows,
						MeanScoreDelta: d.MeanScoreDelta, MaxAbsScoreDelta: d.MaxAbsScoreDelta,
						RankRows: d.Shift.Rows, RankChanged: d.Shift.Changed,
						MeanRankBefore: d.Shift.MeanBefore, MeanRankAfter: d.Shift.MeanAfter,
						MeanAbsRankShift: d.Shift.MeanAbsShift, MaxAbsRankShift: d.Shift.MaxAbsShift,
						RankImproved: d.Shift.Improved, RankWorsened: d.Shift.Worsened}
					var got driftEvent
					if !sc.Scan() {
						t.Fatalf("patch %d: stream ended before event %d: %v", i, j, sc.Err())
					}
					if err := json.Unmarshal(sc.Bytes(), &got); err != nil {
						t.Fatalf("drift line: %v\n%s", err, sc.Text())
					}
					if got != want {
						t.Fatalf("patch %d event %d:\n got %+v\nwant %+v", i, j, got, want)
					}
				}
			}
		})
	}
}

// historyBytes decodes a fuzz input one byte at a time, reading 0 once
// exhausted.
type historyBytes []byte

func (b *historyBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// dataset decodes 2-7 items of dimension d with attributes 0-5, so scores
// tie often.
func (b *historyBytes) dataset(d int) *stablerank.Dataset {
	ds := stablerank.MustDataset(d)
	for i := range 2 + b.next()%6 {
		if err := ds.Add(fmt.Sprintf("i%d", i), b.attrs(d)); err != nil {
			panic(err)
		}
	}
	return ds
}

func (b *historyBytes) attrs(d int) []float64 {
	attrs := make([]float64, d)
	for j := range attrs {
		attrs[j] = float64(b.next() % 6)
	}
	return attrs
}

// historyServer serves one dataset, "h", from a small pool on one worker.
func historyServer(t *testing.T, ds *stablerank.Dataset) *Server {
	reg := NewRegistry()
	if err := reg.Add("h", ds); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Registry: reg, DefaultSampleCount: 300, Workers: 1, JobWorkers: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// serve answers one request in process and returns its status and body.
func serve(s *Server, method, target, body string) (int, string) {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
	return rec.Code, rec.Body.String()
}

// FuzzPatchHistory decodes a history of PATCHes, same- and other-dimension
// replacements, and reads of one dataset: three regions, each exact and
// adaptive, through POST /v1/query, plus a cached GET /v1/h/toph for the
// exact ones. After every read the response bytes equal a fresh server's
// over the registry's current dataset, the analyzer that answered holds the
// registry's dataset, the analyzer cache has built an analyzer only for a
// key's first read at a dimension (since a build at another dimension
// dropped the key's entry), and every resident row has drawn its pool once.
func FuzzPatchHistory(f *testing.F) {
	// Read, PATCH, read the same key; PATCH twice more around a second key's
	// reads; a same-dimension replacement and a read; a 3 -> 4 replacement
	// and two reads.
	f.Add([]byte{0, 1, 2, 3, 3, 2, 1,
		3, 0, 0, 0, 0, 0, 5, 5, 5, 2, 3, 0, 0,
		0, 1, 1, 1, 1, 1, 1, 0, 2, 2, 2, 0, 3, 1, 1,
		1, 1, 0, 1, 2, 2, 1, 0, 5, 5, 1, 3, 1, 1,
		2, 0, 1, 2, 3, 4, 4, 3, 2, 1, 3, 0, 0, 3, 2, 0})
	for seed := range int64(6) {
		data := make([]byte, 160)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		src := historyBytes(data)
		d := 3
		s := historyServer(t, src.dataset(d))
		builds := int64(0)
		dims := map[analyzerKey]int{} // the dimension each key's analyzer was built at
		for step := 0; step < 10 && len(src) > 0; step++ {
			switch op := src.next() % 5; op {
			case 0:
				ds, _, ver, _ := s.registry.Get("h")
				var deltas []string
				for j := range 1 + src.next()%2 {
					id := ds.Item(src.next() % ds.N()).ID
					attrs, _ := json.Marshal(src.attrs(d))
					switch src.next() % 3 {
					case 0:
						deltas = append(deltas, fmt.Sprintf(`{"op":"remove","id":%q}`, id))
					case 1:
						deltas = append(deltas, fmt.Sprintf(`{"op":"add","id":"x%d.%d","attrs":%s}`, step, j, attrs))
					default:
						deltas = append(deltas, fmt.Sprintf(`{"op":"update","id":%q,"attrs":%s}`, id, attrs))
					}
				}
				code, body := serve(s, http.MethodPatch, "/v1/datasets/h", `{"deltas":[`+strings.Join(deltas, ",")+`]}`)
				_, _, nver, _ := s.registry.Get("h")
				if code == http.StatusOK && nver != ver+1 || code == http.StatusBadRequest && nver != ver || code != http.StatusOK && code != http.StatusBadRequest {
					t.Fatalf("step %d: PATCH = %d (version %d -> %d): %s", step, code, ver, nver, body)
				}
			case 1, 2:
				if op == 2 {
					d = 7 - d // 3 <-> 4
				}
				if err := s.registry.Add("h", src.dataset(d)); err != nil {
					t.Fatal(err)
				}
			default:
				r, adaptive := src.next()%3, src.next()%2 == 1
				ones, ramp := make([]float64, d), make([]float64, d)
				for j := range d {
					ones[j], ramp[j] = 1, float64(j+1)
				}
				spec := []regionSpec{{}, {weights: ones, cosine: 0.99}, {weights: ramp, theta: 0.4}}[r]
				key := analyzerKey{dataset: "h", region: spec.canonical(), seed: 1, samples: 300}
				req := queryRequest{Dataset: "h", Weights: spec.weights, Theta: spec.theta, Cosine: spec.cosine,
					Queries: []querySpec{{Op: "verify", Weights: ramp}, {Op: "toph", H: 3}}}
				if adaptive {
					req.Adaptive, key.adaptive = 0.05, 0.05
				}
				body, err := json.Marshal(req)
				if err != nil {
					t.Fatal(err)
				}
				ds, _, _, _ := s.registry.Get("h")
				fresh := historyServer(t, ds)
				reqs := [][3]string{{http.MethodPost, "/v1/query", string(body)}}
				if !adaptive {
					q := url.Values{"h": {"3"}}
					if spec.weights != nil {
						ws := make([]string, d)
						for j, w := range spec.weights {
							ws[j] = strconv.FormatFloat(w, 'g', -1, 64)
						}
						q.Set("weights", strings.Join(ws, ","))
					}
					if spec.theta > 0 {
						q.Set("theta", "0.4")
					}
					if spec.cosine > 0 {
						q.Set("cosine", "0.99")
					}
					reqs = append(reqs, [3]string{http.MethodGet, "/v1/h/toph?" + q.Encode(), ""})
				}
				for _, rq := range reqs {
					code, got := serve(s, rq[0], rq[1], rq[2])
					wcode, want := serve(fresh, rq[0], rq[1], rq[2])
					if code != http.StatusOK || code != wcode || got != want {
						t.Fatalf("step %d: %s %s = %d:\n%s\nfresh server = %d:\n%s", step, rq[0], rq[1], code, got, wcode, want)
					}
				}
				if dims[key] != d {
					// The build drops the other keys' entries of another
					// dimension, so their next read builds again.
					for k, kd := range dims {
						if kd != d {
							delete(dims, k)
						}
					}
					dims[key] = d
					builds++
				}
				a := s.analyzers.resident(key)
				if a == nil {
					t.Fatalf("step %d: nothing resident for %s", step, key.at(0, 0))
				}
				if a.Dataset() != ds {
					t.Fatalf("step %d: the analyzer that answered does not hold the registry's dataset", step)
				}
				stats, got, _, _ := s.analyzers.snapshot()
				if got != builds {
					t.Fatalf("step %d: %d analyzer builds, want %d", step, got, builds)
				}
				for _, st := range stats {
					if st.PoolBuilds != 1 {
						t.Fatalf("step %d: row %s drew its pool %d times, want 1", step, st.Key, st.PoolBuilds)
					}
				}
			}
		}
	})
}
