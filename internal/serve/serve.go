// Package serve is the cfp exploration service: an HTTP/JSON front end
// over the custom-fit toolchain (compile, simulate, explore, fit)
// backed by a bounded worker pool and job queue.
//
// Every POST /v1/{compile,simulate,explore,fit} submits a job and
// returns 202 with its id; clients poll GET /v1/jobs/{id} or stream
// GET /v1/jobs/{id}/events (server-sent events: "progress" snapshots,
// then one "done" carrying the terminal status). DELETE /v1/jobs/{id}
// cancels — promptly, because the whole evaluation stack underneath is
// context-threaded (see dse.ErrCancelled).
//
// Identical explore/fit requests coalesce onto one in-flight job (the
// pipeline is deterministic, so equal requests have equal answers), and
// concurrent distinct explorations still share work through the
// optional persistent evaluation cache (without one, each job's
// evaluator keeps its own memory-only store).
// When a cache is attached it is additionally served to the fleet:
// GET /v1/cache/{shard}/{key} and batched POST /v1/cache/{shard}
// (put/has) make this process a cache peer other workers read through
// and write behind to (see internal/fleetcache and docs/DISTRIBUTED.md),
// with fingerprint-gated admission and optional reference-counted GC
// (Options.CacheGCEntries).
// GET /healthz reports liveness (503 while draining); GET /metrics
// dumps the obs collector's counters, gauges and span totals.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"customfit/internal/dse"
	"customfit/internal/evcache"
	"customfit/internal/obs"
	olog "customfit/internal/obs/log"
	"customfit/internal/sched"
)

// Options configures a Server. The zero value serves with two job
// workers, a queue of 16, no persistent cache and the default metrics
// collector.
type Options struct {
	// Workers is the number of jobs run concurrently (default 2). Each
	// explore job additionally fans out EvalParallelism compile workers,
	// so total CPU use is roughly Workers × EvalParallelism.
	Workers int
	// QueueDepth bounds the submit queue (default 16); submits beyond it
	// are rejected with 503 rather than buffered without bound.
	QueueDepth int
	// EvalParallelism is the per-job compile worker count
	// (0 = GOMAXPROCS).
	EvalParallelism int
	// Cache is a pre-opened persistent evaluation cache shared by every
	// job (optional; caller keeps ownership and closes it after
	// Shutdown). When set it is also served to the fleet over
	// GET/POST /v1/cache/{shard} (see internal/fleetcache).
	Cache *evcache.Cache
	// CacheGCEntries, when > 0, bounds the shared cache's resident
	// entries: once exceeded, shards not referenced by any of the last
	// CacheGCJobs jobs (or cache requests) are dropped whole —
	// reference-counted GC for a long-lived server.
	CacheGCEntries int
	// CacheGCJobs is the GC reference window (default 32).
	CacheGCJobs int
	// MaxJobs bounds retained terminal jobs (default 256); the oldest
	// finished jobs are evicted first. Live jobs are never evicted.
	MaxJobs int
	// Collector backs /metrics. Nil uses the installed obs collector,
	// installing a fresh one if none is active (a server wants its
	// counters even when the operator asked for no -metrics file).
	Collector *obs.Collector
	// SpanLimit bounds the spans returned per traced job (default
	// 16384); overflow is dropped and counted on serve.spans_dropped.
	SpanLimit int
	// Logger receives the server's structured log entries. Nil falls
	// back to the process-global obs/log logger at each call (so a
	// logger installed by cli.Tool is picked up without plumbing).
	Logger *olog.Logger
}

// Server is the exploration service. Create with New, expose via
// Handler, stop with Shutdown.
type Server struct {
	opts      Options
	mux       *http.ServeMux
	collector *obs.Collector
	started   time.Time

	queue     chan *Job
	wg        sync.WaitGroup
	baseCtx   context.Context
	baseStop  context.CancelFunc
	closeOnce sync.Once

	// gc is the shared cache's reference-counted GC (nil when
	// CacheGCEntries is 0).
	gc *cacheGC

	mu       sync.Mutex
	draining bool
	jobs     map[string]*Job
	order    []string // insertion order, for eviction
	inflight map[string]*Job
	nextID   int64
}

// New starts a Server's worker pool. Callers must eventually Shutdown.
func New(opts Options) *Server {
	if opts.Workers <= 0 {
		opts.Workers = 2
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 16
	}
	if opts.MaxJobs <= 0 {
		opts.MaxJobs = 256
	}
	if opts.SpanLimit <= 0 {
		opts.SpanLimit = 16384
	}
	col := opts.Collector
	if col == nil {
		col = obs.Active()
	}
	if col == nil {
		col = obs.NewCollector()
		obs.Install(col)
	}
	ctx, stop := context.WithCancel(context.Background())
	s := &Server{
		opts:      opts,
		collector: col,
		started:   time.Now(),
		queue:     make(chan *Job, opts.QueueDepth),
		baseCtx:   ctx,
		baseStop:  stop,
		jobs:      make(map[string]*Job),
		inflight:  make(map[string]*Job),
		gc:        newCacheGC(opts.CacheGCEntries, opts.CacheGCJobs),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/compile", s.handleCompile)
	s.mux.HandleFunc("POST /v1/simulate", s.handleSimulate)
	s.mux.HandleFunc("POST /v1/explore", s.handleExplore)
	s.mux.HandleFunc("POST /v1/fit", s.handleFit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	s.mux.HandleFunc("GET /v1/cache/{shard}/{key}", s.handleCacheGet)
	s.mux.HandleFunc("POST /v1/cache/{shard}", s.handleCachePut)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Handler returns the service's HTTP handler (mountable under httptest
// or an http.Server).
func (s *Server) Handler() http.Handler { return s.mux }

// Shutdown drains: new submits are rejected (and /healthz turns 503),
// queued and running jobs run to completion, workers exit. If ctx
// expires first, the remaining jobs are cancelled (they finish as
// "cancelled" promptly — the stack is context-threaded) and Shutdown
// returns ctx.Err() after they do.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.logger().Info("draining").Log()
	s.closeOnce.Do(func() { close(s.queue) })
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.baseStop()
		<-done
		return ctx.Err()
	}
}

// worker drains the queue until Shutdown closes it.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob executes one job and classifies its outcome. Cancellation
// (anything wrapping dse.ErrCancelled or the context errors) is
// recorded as "cancelled", not "failed" — operators must be able to
// tell aborted work from genuinely broken requests.
//
// The job's serve.job span continues the submitter's trace when the
// request carried a traceparent, and the span rides j's context so the
// whole evaluation stack underneath (dse.explore, evaluate, compile,
// sched, sim) parents under it. After the job ends, its span subtree is
// removed from the collector — keeping a long-lived server's event
// buffer bounded — and, for traced jobs, returned in JobStatus.Spans.
func (s *Server) runJob(j *Job) {
	if !j.startRunning() {
		s.clearInflight(j)
		return
	}
	start := time.Now()
	sp := obs.StartSpanIn(j.remote, "serve.job")
	sp.Str("kind", j.Kind).Str("id", j.ID)
	result, err := j.run(obs.ContextWithSpan(j.ctx, sp), j)
	sp.End()
	evs := sp.TakeSubtree()
	if j.remote.Valid() && len(evs) > 0 {
		if len(evs) > s.opts.SpanLimit {
			obs.GetCounter("serve.spans_dropped").Add(int64(len(evs) - s.opts.SpanLimit))
			evs = evs[:s.opts.SpanLimit]
		}
		j.setSpans(obs.ToWire(evs))
	}
	s.clearInflight(j)
	var state State
	switch {
	case err == nil:
		state = StateDone
		j.finish(StateDone, result, "")
		obs.GetCounter("serve.jobs_done").Inc()
	case errors.Is(err, dse.ErrCancelled), errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		state = StateCancelled
		j.finish(StateCancelled, nil, err.Error())
		obs.GetCounter("serve.jobs_cancelled").Inc()
	default:
		state = StateFailed
		j.finish(StateFailed, nil, err.Error())
		obs.GetCounter("serve.jobs_failed").Inc()
	}
	s.logger().Info("job finished").
		Str("job", j.ID).Str("kind", j.Kind).Str("state", string(state)).
		Dur("dur", time.Since(start)).
		Str("trace", sp.Context().Trace.String()).
		Err(err).Log()
}

// logger returns the server's log sink: the explicit Options.Logger, or
// the process-global one at call time (nil — a silent no-op chain —
// when neither is configured).
func (s *Server) logger() *olog.Logger {
	if s.opts.Logger != nil {
		return s.opts.Logger
	}
	return olog.Default()
}

// clearInflight drops the job from the coalescing index once it can no
// longer absorb newcomers.
func (s *Server) clearInflight(j *Job) {
	if j.coalesceKey == "" {
		return
	}
	s.mu.Lock()
	if s.inflight[j.coalesceKey] == j {
		delete(s.inflight, j.coalesceKey)
	}
	s.mu.Unlock()
}

var (
	errDraining  = errors.New("serve: shutting down, not accepting jobs")
	errQueueFull = errors.New("serve: job queue full")
)

// submit creates (or coalesces onto) a job. coalesceKey must be a
// canonical encoding of everything that affects the job's result —
// identical keys share one execution and one job id. remote is the
// submitter's propagated span context (zero = untraced); a request that
// coalesces onto an in-flight job keeps that job's original trace — the
// newcomer's traceparent is dropped, since the work runs once.
func (s *Server) submit(kind, coalesceKey string, remote obs.SpanContext, run func(ctx context.Context, j *Job) (json.RawMessage, error)) (j *Job, coalesced bool, err error) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, false, errDraining
	}
	if coalesceKey != "" {
		if live, ok := s.inflight[coalesceKey]; ok {
			s.mu.Unlock()
			obs.GetCounter("serve.jobs_coalesced").Inc()
			return live, true, nil
		}
	}
	s.nextID++
	id := fmt.Sprintf("j%d", s.nextID)
	ctx, cancel := context.WithCancel(s.baseCtx)
	j = &Job{
		ID:          id,
		Kind:        kind,
		run:         run,
		ctx:         ctx,
		cancel:      cancel,
		coalesceKey: coalesceKey,
		created:     time.Now(),
		remote:      remote,
		state:       StateQueued,
	}
	select {
	case s.queue <- j:
	default:
		s.mu.Unlock()
		cancel()
		obs.GetCounter("serve.queue_rejects").Inc()
		s.logger().Warn("queue full, job rejected").Str("kind", kind).Log()
		return nil, false, errQueueFull
	}
	s.jobs[id] = j
	s.order = append(s.order, id)
	if coalesceKey != "" {
		s.inflight[coalesceKey] = j
	}
	s.evictLocked()
	s.mu.Unlock()
	obs.GetCounter("serve.jobs_submitted").Inc()
	s.logger().Debug("job accepted").
		Str("job", id).Str("kind", kind).
		Str("trace", remote.Trace.String()).Log()
	return j, false, nil
}

// evictLocked trims the oldest terminal jobs beyond MaxJobs.
func (s *Server) evictLocked() {
	if len(s.jobs) <= s.opts.MaxJobs {
		return
	}
	kept := s.order[:0]
	for _, id := range s.order {
		j := s.jobs[id]
		if j == nil {
			continue
		}
		if len(s.jobs) > s.opts.MaxJobs && j.State().Terminal() {
			delete(s.jobs, id)
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// job looks up a job by id.
func (s *Server) job(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// SubmitResponse acknowledges a submit.
type SubmitResponse struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	// Coalesced marks that an identical request was already in flight
	// and this id refers to its job.
	Coalesced bool `json:"coalesced,omitempty"`
}

// remoteContext extracts the submitter's span context from the
// traceparent request header (zero when absent or malformed — an
// unparseable header degrades to an untraced job, never an error).
func remoteContext(r *http.Request) obs.SpanContext {
	sc, _ := obs.ParseTraceParent(r.Header.Get("traceparent"))
	return sc
}

// respondSubmit runs the common tail of every submit handler.
func (s *Server) respondSubmit(w http.ResponseWriter, remote obs.SpanContext, kind, key string, run func(ctx context.Context, j *Job) (json.RawMessage, error)) {
	j, coalesced, err := s.submit(kind, key, remote, run)
	switch {
	case errors.Is(err, errDraining), errors.Is(err, errQueueFull):
		writeErr(w, http.StatusServiceUnavailable, err.Error())
		return
	case err != nil:
		writeErr(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusAccepted, SubmitResponse{ID: j.ID, State: j.State(), Coalesced: coalesced})
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		writeErr(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		writeErr(w, http.StatusNotFound, "no such job")
		return
	}
	if j.requestCancel() {
		obs.GetCounter("serve.cancel_requests").Inc()
	}
	writeJSON(w, http.StatusOK, j.Status())
}

// handleJobEvents streams SSE: replayed + live "progress" events, then
// exactly one "done" with the terminal JobStatus. The job finishing
// closes the subscription channel; the handler then emits "done" from a
// fresh Status read, so the terminal event cannot be lost to a full
// buffer. Every event carries an id, and a reconnecting client sending
// Last-Event-ID (the standard EventSource behavior) skips progress it
// already consumed; the done event is re-sent regardless, so a client
// that drops mid-job can never miss the terminal state.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		writeErr(w, http.StatusNotFound, "no such job")
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	// A malformed header is treated as a fresh connection (replay all).
	lastID, _ := strconv.ParseInt(r.Header.Get("Last-Event-ID"), 10, 64)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	ch, unsubscribe := j.subscribe(lastID)
	defer unsubscribe()
	for {
		select {
		case ev, open := <-ch:
			if !open {
				data, _ := json.Marshal(j.Status())
				fmt.Fprintf(w, "id: %d\nevent: done\ndata: %s\n\n", j.doneEventID(), data)
				fl.Flush()
				return
			}
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.ID, ev.Name, ev.Data)
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// HealthResponse is the GET /healthz body. Beyond liveness it carries
// what a distributed coordinator (internal/dist) needs for capacity
// discovery and fleet admission: the job-worker capacity and the
// backend fingerprint (a coordinator refuses workers whose fingerprint
// differs from its own — mixed backends would break the determinism
// guarantee).
type HealthResponse struct {
	Status string `json:"status"` // "ok" or "draining"
	Jobs   int    `json:"jobs"`
	Queued int    `json:"queued"`
	// Running is the in-flight job count (jobs currently executing).
	// Together with Queued it lets a coordinator or load balancer prefer
	// idle workers: Running+Queued is the worker's present load.
	Running int `json:"running"`
	// Workers is the concurrent-job capacity (Options.Workers).
	Workers int `json:"workers"`
	// Fingerprint is sched.Fingerprint(): the backend's code-generation
	// identity.
	Fingerprint string `json:"fingerprint"`
}

// jobStateCounts tallies retained jobs by lifecycle state.
func (s *Server) jobStateCounts() map[State]int {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	counts := make(map[State]int, 5)
	for _, j := range jobs {
		counts[j.State()]++
	}
	return counts
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	n := len(s.jobs)
	s.mu.Unlock()
	h := HealthResponse{
		Status:      "ok",
		Jobs:        n,
		Queued:      len(s.queue),
		Running:     s.jobStateCounts()[StateRunning],
		Workers:     s.opts.Workers,
		Fingerprint: sched.Fingerprint(),
	}
	code := http.StatusOK
	if draining {
		h.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}

// setLiveGauges refreshes the collector's live server-state gauges so
// every scrape (JSON or Prometheus) sees current values rather than
// whatever the last exploration left behind.
func (s *Server) setLiveGauges() {
	counts := s.jobStateCounts()
	c := s.collector
	c.SetGauge("serve.queue_depth", float64(len(s.queue)))
	c.SetGauge("serve.worker_capacity", float64(s.opts.Workers))
	c.SetGauge("serve.active_workers", float64(counts[StateRunning]))
	c.SetGauge("serve.jobs_state_queued", float64(counts[StateQueued]))
	c.SetGauge("serve.jobs_state_running", float64(counts[StateRunning]))
	c.SetGauge("serve.jobs_state_done", float64(counts[StateDone]))
	c.SetGauge("serve.jobs_state_failed", float64(counts[StateFailed]))
	c.SetGauge("serve.jobs_state_cancelled", float64(counts[StateCancelled]))
	c.SetGauge("serve.uptime_seconds", time.Since(s.started).Seconds())
	if s.opts.Cache != nil {
		c.SetGauge("serve.cache_resident_entries", float64(s.opts.Cache.Resident()))
	}
}

// handleMetrics serves the collector in two formats, content-negotiated
// on Accept: Prometheus text exposition (version 0.0.4) when the client
// asks for text/plain or openmetrics (or ?format=prometheus), the
// original JSON dump otherwise. Stock Prometheus sends an Accept header
// matching the former, so a fleet is scrapeable unconfigured.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.setLiveGauges()
	accept := r.Header.Get("Accept")
	if strings.Contains(accept, "text/plain") || strings.Contains(accept, "openmetrics") ||
		r.URL.Query().Get("format") == "prometheus" {
		w.Header().Set("Content-Type", obs.PrometheusContentType)
		w.WriteHeader(http.StatusOK)
		_ = s.collector.WritePrometheus(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if err := s.collector.WriteMetrics(w); err != nil {
		// Too late for a status code; the truncated body says enough.
		return
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// ErrorResponse is the body of every non-2xx JSON reply.
type ErrorResponse struct {
	Error string `json:"error"`
}

func writeErr(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, ErrorResponse{Error: msg})
}
