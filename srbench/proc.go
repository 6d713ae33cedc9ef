package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"
)

// liveServer is one stablerankd child process on a loopback port.
type liveServer struct {
	cmd     *exec.Cmd
	base    string
	logDone chan struct{}
}

// startServer execs stablerankd with default flags except the listen
// address (and -data when dataDir is set) and returns once it listens. Its
// log is drained into io.Discard for the life of the process, so request
// logging costs what it costs in production.
func startServer(bin, dataDir string) (*liveServer, error) {
	args := []string{"-addr", "127.0.0.1:0"}
	if dataDir != "" {
		args = append(args, "-data", dataDir)
	}
	cmd := exec.Command(bin, args...)
	// Should the benchmark die without stopping it, the kernel kills the
	// server too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	logs, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting stablerankd: %w", err)
	}
	s := &liveServer{cmd: cmd, logDone: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(s.logDone)
		br := bufio.NewReader(logs)
		for {
			line, err := br.ReadString('\n')
			if _, rest, ok := strings.Cut(line, " dataset(s) on "); ok {
				addr <- strings.TrimSpace(rest)
				_, _ = io.Copy(io.Discard, br)
				return
			}
			if err != nil {
				close(addr)
				return
			}
		}
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			_ = s.stop()
			return nil, errors.New("stablerankd exited before listening")
		}
		s.base = "http://" + a
		return s, nil
	case <-time.After(30 * time.Second):
		_ = s.stop()
		return nil, errors.New("stablerankd did not listen within 30s")
	}
}

func (s *liveServer) pid() int { return s.cmd.Process.Pid }

// stop sends SIGTERM, waits for the drain, and kills the process if it
// outlives 20 seconds. It returns once the process and its log drain ended.
func (s *liveServer) stop() error {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	var err error
	select {
	case err = <-done:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		err = <-done
	}
	<-s.logDone
	return err
}

// client sends requests over at most conns loopback connections.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &client{base: base, hc: &http.Client{Transport: tr}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// reqResult is one executed request.
type reqResult struct {
	status   int
	bytes    int
	body     []byte
	firstRow time.Time
	end      time.Time
	err      error
}

// exec sends o and checks its answer; st accumulates exact answer counts.
func (c *client) exec(ctx context.Context, o *op, chk *checker, st *answerStats) reqResult {
	var body io.Reader
	if o.body != nil {
		body = bytes.NewReader(o.body)
	}
	req, err := http.NewRequestWithContext(ctx, o.method, c.base+o.path, body)
	if err != nil {
		return reqResult{err: err, end: time.Now()}
	}
	if o.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return reqResult{err: err, end: time.Now()}
	}
	defer resp.Body.Close()
	r := reqResult{status: resp.StatusCode}
	if o.kind == kStream && resp.StatusCode == http.StatusOK {
		r.bytes, r.err = chk.readStream(o, resp.Body, func() { r.firstRow = time.Now() }, st)
		r.end = time.Now()
		return r
	}
	r.body, r.err = io.ReadAll(resp.Body)
	r.end = time.Now()
	r.bytes = len(r.body)
	if r.err == nil {
		r.err = chk.check(o, r.status, r.body, st)
	}
	return r
}

// statsz fetches /statsz flattened to numeric leaves.
func (c *client) statsz(ctx context.Context) (map[string]float64, error) {
	body, err := c.get(ctx, "/statsz")
	if err != nil {
		return nil, err
	}
	return flatStats(body)
}

func (c *client) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return body, err
}

// upload registers one dataset from its CSV.
func (c *client) upload(ctx context.Context, in dataInput) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/datasets/"+in.name, bytes.NewReader(in.csv))
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("uploading %s: %w", in.name, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("uploading %s: status %d: %s", in.name, resp.StatusCode, bytes.TrimSpace(body))
	}
	return nil
}

// driftEvent is one line of GET /v1/{dataset}/drift.
type driftEvent struct {
	Dataset          string  `json:"dataset"`
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

// subscriber holds one drift stream open on its own connection and records
// when each version's events arrive.
type subscriber struct {
	cancel  context.CancelFunc
	done    chan struct{}
	version int64 // the dataset version in the hello line

	mu      sync.Mutex
	first   map[int64]time.Time    // guarded by mu
	events  map[int64][]driftEvent // guarded by mu
	readErr error                  // guarded by mu; an undecodable line
	endErr  error                  // guarded by mu; why the stream ended, once it has
}

func subscribe(base, dataset string) (*subscriber, error) {
	hc := newClient(base, 1)
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/"+dataset+"/drift", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := hc.hc.Do(req)
	if err != nil {
		cancel()
		return nil, fmt.Errorf("subscribing to drift: %w", err)
	}
	br := bufio.NewReader(resp.Body)
	var hello struct {
		Version   int64 `json:"version"`
		Streaming bool  `json:"streaming"`
	}
	line, err := br.ReadBytes('\n')
	if err == nil {
		err = json.Unmarshal(line, &hello)
	}
	if err != nil || resp.StatusCode != http.StatusOK || !hello.Streaming {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("drift stream hello: status %d, %v", resp.StatusCode, err)
	}
	s := &subscriber{
		cancel: cancel, done: make(chan struct{}), version: hello.Version,
		first: make(map[int64]time.Time), events: make(map[int64][]driftEvent),
	}
	go func() {
		defer close(s.done)
		defer resp.Body.Close()
		defer hc.close()
		for {
			line, err := br.ReadBytes('\n')
			if len(bytes.TrimSpace(line)) > 0 {
				now := time.Now()
				var ev driftEvent
				jerr := json.Unmarshal(line, &ev)
				s.mu.Lock()
				if jerr != nil {
					s.readErr = jerr
				} else {
					if _, ok := s.first[ev.Version]; !ok {
						s.first[ev.Version] = now
					}
					s.events[ev.Version] = append(s.events[ev.Version], ev)
				}
				s.mu.Unlock()
			}
			if err != nil {
				s.mu.Lock()
				s.endErr = err
				s.mu.Unlock()
				return
			}
		}
	}()
	return s, nil
}

// ended describes why the stream ended, or is empty while it is open.
func (s *subscriber) ended() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.endErr == nil {
		return ""
	}
	return fmt.Sprintf(" (the drift stream ended: %v)", s.endErr)
}

// await waits up to timeout for n events of version v and returns them with
// the arrival time of the first.
func (s *subscriber) await(v int64, n int, timeout time.Duration) ([]driftEvent, time.Time, bool) {
	deadline := time.Now().Add(timeout)
	for {
		s.mu.Lock()
		evs, at := s.events[v], s.first[v]
		s.mu.Unlock()
		if len(evs) >= n {
			return evs, at, true
		}
		if time.Now().After(deadline) {
			return evs, at, false
		}
		time.Sleep(time.Millisecond)
	}
}

func (s *subscriber) close() {
	s.cancel()
	<-s.done
}
