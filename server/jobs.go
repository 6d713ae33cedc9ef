package server

import (
	"context"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Async jobs: POST /v1/jobs accepts the same body as POST /v1/query,
// validates it synchronously, and runs it on a bounded worker pool instead
// of holding the connection open — the serving shape for enumerations far
// deeper than a synchronous response should carry. Results are retrievable
// for a TTL after completion; DELETE cancels a queued or running job.

// jobState is a job's lifecycle phase.
type jobState string

const (
	jobQueued    jobState = "queued"
	jobRunning   jobState = "running"
	jobDone      jobState = "done"
	jobFailed    jobState = "failed"
	jobCancelled jobState = "cancelled"
)

// job is one asynchronous query request. Mutable fields are guarded by the
// store's mutex; result/errMsg are written exactly once, before the state
// leaves jobRunning.
type job struct {
	id      string
	cq      *compiledQuery
	state   jobState
	created time.Time
	started time.Time
	ended   time.Time
	expires time.Time // zero until finished; finished + TTL
	cancel  context.CancelFunc
	result  *queryResponse
	errMsg  string
}

// jobStore owns the queue, the worker pool and the TTL'd results. Expired
// jobs are purged lazily on every access (no background janitor: the store
// must not outlive Server.Close).
type jobStore struct {
	mu   sync.Mutex
	jobs map[string]*job // guarded by mu
	// queue holds the queued jobs in submission order. Its length is what
	// queueSize bounds, so cancelling a queued job frees its slot at once.
	queue     []*job // guarded by mu
	queueSize int
	// ready wakes idle workers when the queue grows or the store closes; its
	// lock is mu.
	ready *sync.Cond

	workers int
	ttl     time.Duration
	timeout time.Duration
	exec    func(context.Context, *compiledQuery) (*queryResponse, error)
	persist *jobPersister // nil = no persistence

	baseCtx   context.Context //srlint:ctxflow worker-pool lifetime context, owned by the store and cancelled in close()
	cancelAll context.CancelFunc
	wg        sync.WaitGroup
	seq       atomic.Int64

	completed atomic.Int64
	failed    atomic.Int64
	cancelled atomic.Int64
}

// newJobStore starts the worker pool. workers < 0 disables the subsystem
// (submit answers 503).
func newJobStore(workers, queueSize int, ttl, timeout time.Duration, exec func(context.Context, *compiledQuery) (*queryResponse, error), persist *jobPersister) *jobStore {
	if workers < 0 {
		workers = 0
	}
	if queueSize < 1 {
		queueSize = 1
	}
	ctx, cancel := context.WithCancel(context.Background()) //srlint:ctxflow jobs outlive the submitting request by design; the pool root is cancelled in close()
	st := &jobStore{
		jobs:      make(map[string]*job),
		queueSize: queueSize,
		workers:   workers,
		ttl:       ttl,
		timeout:   timeout,
		exec:      exec,
		persist:   persist,
		baseCtx:   ctx,
		cancelAll: cancel,
	}
	st.ready = sync.NewCond(&st.mu)
	for w := 0; w < workers; w++ {
		st.wg.Add(1)
		go st.worker()
	}
	return st
}

// close cancels the base context — which cancels every running job — and
// waits for the workers to drain.
func (st *jobStore) close() {
	st.cancelAll()
	st.mu.Lock()
	st.ready.Broadcast()
	st.mu.Unlock()
	st.wg.Wait()
}

// worker runs queued jobs, oldest first, until the store closes.
func (st *jobStore) worker() {
	defer st.wg.Done()
	for {
		st.mu.Lock()
		for len(st.queue) == 0 && st.baseCtx.Err() == nil {
			st.ready.Wait()
		}
		if st.baseCtx.Err() != nil {
			st.mu.Unlock()
			return
		}
		j := st.queue[0]
		st.queue = slices.Delete(st.queue, 0, 1)
		st.mu.Unlock()
		st.run(j)
	}
}

// enqueueLocked appends j to the queue and wakes a worker. Callers hold
// st.mu and have checked the queue has room.
func (st *jobStore) enqueueLocked(j *job) {
	st.queue = append(st.queue, j)
	st.ready.Signal()
}

func (st *jobStore) run(j *job) {
	st.mu.Lock()
	if j.state != jobQueued { // cancelled while waiting
		st.mu.Unlock()
		return
	}
	var ctx context.Context
	var cancel context.CancelFunc
	if st.timeout > 0 {
		ctx, cancel = context.WithTimeout(st.baseCtx, st.timeout)
	} else {
		ctx, cancel = context.WithCancel(st.baseCtx)
	}
	j.state = jobRunning
	j.started = time.Now()
	j.cancel = cancel
	st.mu.Unlock()
	if st.persist != nil {
		st.persist.saveJob(j)
	}
	defer cancel()

	resp, err := st.exec(ctx, j.cq)

	st.mu.Lock()
	defer st.mu.Unlock()
	j.ended = time.Now()
	if st.ttl >= 0 {
		j.expires = j.ended.Add(st.ttl)
	}
	if j.state == jobCancelled {
		// A DELETE raced the completion; the cancellation verdict stands.
		if st.persist != nil {
			st.persist.saveJob(j)
		}
		return
	}
	if err != nil {
		if st.baseCtx.Err() != nil {
			// Shutdown cancelled the job. Leave the persisted record in its
			// running state, so the next boot re-enqueues it and runs it
			// again from the start. The in-memory state is moot: the
			// process is exiting.
			return
		}
		j.state = jobFailed
		j.errMsg = err.Error()
		st.failed.Add(1)
	} else {
		j.state = jobDone
		j.result = resp
		st.completed.Add(1)
	}
	if st.persist != nil {
		st.persist.saveJob(j)
	}
}

// submit registers and enqueues a compiled query; it fails when the queue is
// full or the subsystem is disabled/closed.
func (st *jobStore) submit(cq *compiledQuery) (*job, error) {
	if st.workers == 0 {
		return nil, statusError{code: http.StatusServiceUnavailable, msg: "async jobs are disabled"}
	}
	if st.baseCtx.Err() != nil {
		return nil, statusError{code: http.StatusServiceUnavailable, msg: "server is shutting down"}
	}
	j := &job{
		id:      fmt.Sprintf("j%d", st.seq.Add(1)),
		cq:      cq,
		state:   jobQueued,
		created: time.Now(),
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.purgeLocked()
	if len(st.queue) >= st.queueSize {
		return nil, statusError{code: http.StatusServiceUnavailable, msg: "job queue is full"}
	}
	st.jobs[j.id] = j
	// Persist before enqueueing: once a worker can see the job, its own
	// lifecycle writes must be the newest ones.
	if st.persist != nil {
		st.persist.saveJob(j)
	}
	st.enqueueLocked(j)
	return j, nil
}

// get returns the job by id.
func (st *jobStore) get(id string) (*job, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.purgeLocked()
	j, ok := st.jobs[id]
	return j, ok
}

// stop cancels a queued or running job, or discards a finished one. The
// returned state is the job's state after the call.
func (st *jobStore) stop(id string) (jobState, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.purgeLocked()
	j, ok := st.jobs[id]
	if !ok {
		return "", false
	}
	switch j.state {
	case jobQueued:
		st.queue = slices.DeleteFunc(st.queue, func(q *job) bool { return q == j })
		j.state = jobCancelled
		j.ended = time.Now()
		if st.ttl >= 0 {
			j.expires = j.ended.Add(st.ttl)
		}
		st.cancelled.Add(1)
		if st.persist != nil {
			st.persist.saveJob(j)
		}
	case jobRunning:
		j.state = jobCancelled
		st.cancelled.Add(1)
		if st.persist != nil {
			st.persist.saveJob(j)
		}
		if j.cancel != nil {
			j.cancel()
		}
	default:
		// Finished: DELETE discards the record.
		delete(st.jobs, id)
		if st.persist != nil {
			st.persist.forget(id)
		}
	}
	return j.state, true
}

// purgeLocked forgets finished jobs past their TTL. Callers hold st.mu.
func (st *jobStore) purgeLocked() {
	now := time.Now()
	for id, j := range st.jobs { //srlint:ordered expiry test and delete are per-entry; no cross-entry order dependence
		if !j.expires.IsZero() && now.After(j.expires) {
			switch j.state {
			case jobDone, jobFailed, jobCancelled:
				delete(st.jobs, id)
				if st.persist != nil {
					st.persist.forget(id)
				}
			}
		}
	}
}

// jobCounts is the /statsz summary.
type jobCounts struct {
	queued, running, resident  int
	completed, failed, stopped int64
}

func (st *jobStore) counts() jobCounts {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.purgeLocked()
	c := jobCounts{
		resident:  len(st.jobs),
		completed: st.completed.Load(),
		failed:    st.failed.Load(),
		stopped:   st.cancelled.Load(),
	}
	for _, j := range st.jobs { //srlint:ordered counting is commutative
		switch j.state {
		case jobQueued:
			c.queued++
		case jobRunning:
			c.running++
		}
	}
	return c
}

// jobResponse is the wire form of a job.
type jobResponse struct {
	ID       string         `json:"id"`
	Status   string         `json:"status"`
	Created  time.Time      `json:"created"`
	Started  *time.Time     `json:"started,omitempty"`
	Finished *time.Time     `json:"finished,omitempty"`
	Error    string         `json:"error,omitempty"`
	Result   *queryResponse `json:"result,omitempty"`
}

func (st *jobStore) render(j *job) jobResponse {
	st.mu.Lock()
	defer st.mu.Unlock()
	resp := jobResponse{
		ID:      j.id,
		Status:  string(j.state),
		Created: j.created,
		Error:   j.errMsg,
	}
	if !j.started.IsZero() {
		t := j.started
		resp.Started = &t
	}
	if !j.ended.IsZero() {
		t := j.ended
		resp.Finished = &t
	}
	if j.state == jobDone {
		resp.Result = j.result
	}
	return resp
}

// handleSubmitJob is POST /v1/jobs: validate synchronously (the client
// learns about malformed requests immediately), run asynchronously.
func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	_, req, err := readQueryRequest(w, r)
	if err != nil {
		writeError(w, err)
		return
	}
	cq, err := s.compileQuery(req, s.jobLimits())
	if err != nil {
		writeError(w, err)
		return
	}
	j, err := s.jobs.submit(cq)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, s.jobs.render(j))
}

// handleGetJob is GET /v1/jobs/{id}, dispatched via handleV1Get.
func (s *Server) handleGetJob(w http.ResponseWriter, _ *http.Request, id string) {
	j, ok := s.jobs.get(id)
	if !ok {
		writeError(w, errNotFound("unknown job %q", id))
		return
	}
	writeJSON(w, http.StatusOK, s.jobs.render(j))
}

// handleDeleteJob is DELETE /v1/jobs/{id}: cancel a queued or running job,
// or discard a finished one.
func (s *Server) handleDeleteJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	state, ok := s.jobs.stop(id)
	if !ok {
		writeError(w, errNotFound("unknown job %q", id))
		return
	}
	status := string(state)
	if state != jobCancelled {
		status = "removed"
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": id, "status": status})
}
