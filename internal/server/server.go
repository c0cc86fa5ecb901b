// Package server is the hintm-served HTTP service: a long-running process
// that turns experiments into cacheable, addressable, queryable artifacts,
// and — deployed as a fleet — scales them across nodes.
//
// Request lifecycle: POST /v1/runs accepts a run spec (or a grid of them)
// and POST /v1/grids accepts a batched grid answered as an NDJSON event
// stream. Each spec's content address (the harness's canonical key) is
// derived up front; local store hits answer immediately; on a miss, the
// key's ring owner and replicas are asked for the result (peer fetch)
// before anything simulates; only then does the run enter the scheduler's
// worker pool, where single-flight dedup guarantees each distinct request
// simulates at most once. Completed runs persist into the local store and
// are forwarded to the key's ring owners, so a result computed once is a
// warm hit everywhere, forever — across restarts, across processes, and
// across the fleet.
//
// Admission control: the server carries a bounded work queue. Submissions
// that would exceed it are refused with 429 and a Retry-After header
// rather than queued without bound — under overload the service sheds
// load, it does not grow latency indefinitely.
//
// Wire format: hintm-api/v2 (see internal/api). Every response carries the
// schema in its body and the X-Hintm-Api header; errors are typed
// {code, message, detail} envelopes.
//
// Byte-identity: GET /v1/runs/{key} responds with the store's raw object
// bytes verbatim, and fleet replication (PutRaw) moves those bytes
// unchanged — so every GET of the same key, on any node, cold or warm,
// today or after a restart, returns a byte-identical body.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hintm/internal/api"
	"hintm/internal/fleet"
	"hintm/internal/harness"
	"hintm/internal/obs"
	"hintm/internal/sim"
	"hintm/internal/store"
	"hintm/internal/workloads"
)

// DefaultQueueLimit bounds admitted-but-unfinished runs (async queue plus
// active synchronous work) when Config.QueueLimit is zero.
const DefaultQueueLimit = 256

// MaxGridRuns caps one POST /v1/grids submission.
const MaxGridRuns = 4096

// FleetConfig describes this node's place in a multi-node deployment. The
// zero value means single-node operation (no peer fetch, no forwarding).
type FleetConfig struct {
	// Self is this node's advertised base URL (e.g. http://10.0.0.1:8347);
	// it must appear in Peers.
	Self string
	// Peers lists every node's base URL, including Self. All nodes must
	// agree on the set (spelling order is irrelevant) for placement to
	// agree.
	Peers []string
	// Replicas is how many ring owners hold (and are asked for) each key
	// (default 2, clamped to the fleet size).
	Replicas int
	// Client performs peer HTTP calls (nil = a client with a short timeout).
	Client *http.Client
	// PeerBudget bounds the total peer time one miss may spend before
	// degrading to a local simulation (default 2s). Split into per-call
	// deadlines across the key's owners.
	PeerBudget time.Duration
	// BreakerThreshold is how many consecutive peer-call failures open a
	// peer's circuit breaker (default 3).
	BreakerThreshold int
	// BreakerBackoff is the first open→probe delay; each failed probe
	// doubles it, with seeded jitter, up to 30s (default 500ms).
	BreakerBackoff time.Duration
	// HealthSeed seeds the backoff jitter stream (default 1).
	HealthSeed uint64
	// ReplQueue bounds the async replication queue; overflow drops the
	// oldest item, counted (default 1024).
	ReplQueue int
	// ReplWorkers is how many goroutines drain the replication queue
	// (default 2).
	ReplWorkers int
	// AntiEntropy is the background repair sweep interval; every interval
	// the node re-replicates locally-held keys to owners that miss them
	// (0 = sweeps disabled).
	AntiEntropy time.Duration
}

// Config assembles a Server.
type Config struct {
	// Store is the content-addressed result store (required).
	Store *store.Store
	// Options configures the scheduler; Options.Store/Metrics are
	// overwritten with the server's own.
	Options harness.Options
	// Metrics receives every component's counters (nil = a fresh registry).
	Metrics *obs.Metrics
	// Fleet enables multi-node operation (zero value = single node).
	Fleet FleetConfig
	// QueueLimit bounds the admitted-but-unfinished run count; submissions
	// beyond it get 429 + Retry-After (0 = DefaultQueueLimit).
	QueueLimit int
	// TraceCapacity bounds how many root executions the fleet trace
	// recorder retains (0 = default 512; negative disables tracing — the
	// recorder is nil and the hot path records nothing).
	TraceCapacity int
}

// Server handles the /v1 API. Create with New, expose via Handler, and
// call Drain on shutdown to let enqueued runs finish persisting.
type Server struct {
	store   *store.Store
	runner  *harness.Runner
	opts    harness.Options
	metrics *obs.Metrics

	// Fleet placement: nil ring = single node.
	ring     *fleet.Ring
	self     string
	replicas int
	peerHTTP *http.Client

	// Fleet resilience: per-peer circuit breakers, the async replication
	// queue, and the anti-entropy bookkeeping. All nil/zero when single
	// node.
	health        *fleet.Health
	repl          *replicator
	peerBudget    time.Duration
	stopc         chan struct{} // closes to stop the probe and sweep loops
	stopOnce      sync.Once
	lastSweepUnix int64 // atomic; 0 = never swept

	queueLimit int

	// Observability: the fleet span recorder (nil = tracing disabled), the
	// node label stamped on histogram series, and the start time /healthz
	// reports uptime from.
	traces    *obs.FleetRecorder
	nodeLabel string
	started   time.Time

	// baseCtx outlives individual HTTP requests: enqueued runs must not
	// die with the client connection that triggered them. Cancelling it
	// (via the cancel returned at New) aborts in-flight simulations during
	// a forced shutdown.
	baseCtx context.Context
	cancel  context.CancelFunc

	mux *http.ServeMux
	wg  sync.WaitGroup

	mu       sync.Mutex
	inflight map[string]bool
	active   int // admitted synchronous work (wait/grid runs) not in inflight
	draining bool
}

// New builds a server over cfg.
func New(cfg Config) *Server {
	m := cfg.Metrics
	if m == nil {
		m = obs.NewMetrics()
	}
	cfg.Store.SetMetrics(m)
	opts := cfg.Options
	opts.Store = cfg.Store
	opts.Metrics = m
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		store:      cfg.Store,
		runner:     harness.NewRunner(opts),
		opts:       opts,
		metrics:    m,
		queueLimit: cfg.QueueLimit,
		baseCtx:    ctx,
		cancel:     cancel,
		mux:        http.NewServeMux(),
		inflight:   make(map[string]bool),
		started:    time.Now(),
	}
	if s.queueLimit <= 0 {
		s.queueLimit = DefaultQueueLimit
	}
	s.nodeLabel = cfg.Fleet.Self
	if s.nodeLabel == "" {
		s.nodeLabel = "local"
	}
	if cfg.TraceCapacity >= 0 {
		s.traces = obs.NewFleetRecorder(s.nodeLabel, cfg.TraceCapacity, m)
	}
	if len(cfg.Fleet.Peers) > 1 {
		s.ring = fleet.New(cfg.Fleet.Peers)
		s.self = cfg.Fleet.Self
		s.replicas = cfg.Fleet.Replicas
		if s.replicas <= 0 {
			s.replicas = 2
		}
		if s.replicas > s.ring.Len() {
			s.replicas = s.ring.Len()
		}
		s.peerHTTP = cfg.Fleet.Client
		if s.peerHTTP == nil {
			s.peerHTTP = &http.Client{Timeout: defaultPeerTimeout}
		}
		s.peerBudget = cfg.Fleet.PeerBudget
		if s.peerBudget <= 0 {
			s.peerBudget = defaultPeerBudget
		}
		seed := cfg.Fleet.HealthSeed
		if seed == 0 {
			seed = 1
		}
		s.health = fleet.NewHealth(fleet.HealthConfig{
			Threshold: cfg.Fleet.BreakerThreshold,
			Backoff:   cfg.Fleet.BreakerBackoff,
			Seed:      seed,
			Metrics:   m,
		})
		s.repl = newReplicator(s, cfg.Fleet.ReplQueue, cfg.Fleet.ReplWorkers)
		s.stopc = make(chan struct{})
		go s.probeLoop()
		if cfg.Fleet.AntiEntropy > 0 {
			go s.sweepLoop(cfg.Fleet.AntiEntropy)
		}
	}
	s.mux.HandleFunc("POST /v1/runs", s.handleRuns)
	s.mux.HandleFunc("POST /v1/grids", s.handleGrids)
	s.mux.HandleFunc("GET /v1/runs", s.handleList)
	s.mux.HandleFunc("GET /v1/runs/{key}", s.handleRun)
	s.mux.HandleFunc("PUT /v1/runs/{key}", s.handleReplicate)
	s.mux.HandleFunc("GET /v1/figures/{name}", s.handleFigure)
	s.mux.HandleFunc("GET /v1/traces/{key}", s.handleTrace)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain waits for every enqueued run to complete (and persist) or for ctx
// to expire, whichever comes first; on expiry it cancels the in-flight
// simulations. Queued replications are flushed within the same budget, so
// a graceful shutdown does not orphan forwards. Call after the HTTP
// listener has stopped accepting.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	if s.stopc != nil {
		s.stopOnce.Do(func() { close(s.stopc) }) // stop probe + sweep loops
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		s.cancel()
		<-done
		err = fmt.Errorf("server: drain cut short: %w", ctx.Err())
	}
	if s.repl != nil {
		// Flush what the drained runs enqueued; on expiry, stop the workers
		// (close aborts in-flight retries via baseCtx once cancelled).
		if qerr := s.repl.quiesce(ctx); qerr != nil && err == nil {
			err = fmt.Errorf("server: replication drain cut short: %w", qerr)
		}
		if ctx.Err() != nil {
			s.cancel()
		}
		s.repl.close()
	}
	return err
}

// probeLoop periodically asks the health tracker for open breakers whose
// probe time has arrived and probes each peer's /healthz; a success closes
// the breaker, a failure reopens it with doubled backoff. This is how a
// dead peer comes back without waiting for request traffic to retry it.
func (s *Server) probeLoop() {
	t := time.NewTicker(100 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-s.stopc:
			return
		case now := <-t.C:
			for _, peer := range s.health.Due(now) {
				ctx, cancel := context.WithTimeout(s.baseCtx, time.Second)
				ok := s.probePeer(ctx, peer)
				cancel()
				s.health.Report(peer, ok, 0)
			}
		}
	}
}

func (s *Server) probePeer(ctx context.Context, peer string) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/healthz", nil)
	if err != nil {
		return false
	}
	s.metrics.Counter(obs.MetricProbes).Inc()
	resp, err := s.peerHTTP.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// ---- admission control ------------------------------------------------

// admit reserves n slots of the bounded work queue, or refuses. Callers
// must release exactly n slots (possibly from other goroutines) once the
// admitted work finishes.
func (s *Server) admit(n int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active+len(s.inflight)+n > s.queueLimit {
		s.metrics.Counter(obs.MetricServeThrottled).Inc()
		return false
	}
	s.active += n
	return true
}

// release gives back n admitted slots.
func (s *Server) release(n int) {
	s.mu.Lock()
	s.active -= n
	s.mu.Unlock()
}

// load reports the admitted-but-unfinished run count.
func (s *Server) load() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.active + len(s.inflight)
}

// ---- request parsing --------------------------------------------------

// parse resolves the wire spec into a harness Request.
func (s *Server) parse(spec api.RunSpec) (harness.Request, error) {
	var req harness.Request
	if spec.Workload == "" {
		return req, errors.New("missing workload")
	}
	if _, err := workloads.ByName(spec.Workload); err != nil {
		return req, err
	}
	req.Workload = spec.Workload
	req.Scale = s.opts.Scale
	if spec.Scale != "" {
		var err error
		if req.Scale, err = workloads.ParseScale(spec.Scale); err != nil {
			return req, err
		}
	}
	if spec.HTM != "" {
		var err error
		if req.HTM, err = sim.ParseHTMKind(spec.HTM); err != nil {
			return req, err
		}
	}
	if spec.Hints != "" {
		var err error
		if req.Hints, err = sim.ParseHintMode(spec.Hints); err != nil {
			return req, err
		}
	}
	req.SMT = spec.SMT
	return req, nil
}

// parseAll parses a batch, attributing the first failure to its index.
func (s *Server) parseAll(specs []api.RunSpec) ([]harness.Request, *api.Error) {
	reqs := make([]harness.Request, len(specs))
	for i, spec := range specs {
		var err error
		if reqs[i], err = s.parse(spec); err != nil {
			e := api.Errorf(api.CodeBadRequest, "invalid run spec")
			e.Detail = fmt.Sprintf("requests[%d]: %v", i, err)
			return nil, e
		}
	}
	return reqs, nil
}

// checkSchema validates an explicit request-body schema declaration.
func checkSchema(schema string) *api.Error {
	if schema != "" && schema != api.Schema {
		e := api.Errorf(api.CodeBadRequest, "unsupported request schema %q", schema)
		e.Detail = "this server speaks " + api.Schema
		return e
	}
	return nil
}

// ---- the resolution pipeline ------------------------------------------

// observeRequest records one resolve's wall time into the node-labeled
// serve_request_seconds histogram, by outcome.
func (s *Server) observeRequest(d time.Duration, outcome string) {
	s.metrics.Histogram(obs.MetricServeRequestSec,
		obs.L("node", s.nodeLabel), obs.L("outcome", outcome)).ObserveDuration(d)
}

// observePhase records one pipeline phase's wall time into the
// serve_phase_seconds histogram, labeled by node, phase, and outcome.
func (s *Server) observePhase(phase, outcome string, d time.Duration) {
	s.metrics.Histogram(obs.MetricServePhaseSec,
		obs.L("node", s.nodeLabel), obs.L("phase", phase), obs.L("outcome", outcome)).ObserveDuration(d)
}

// resolve answers one request end to end: the local store, then the key's
// ring owner and replicas (peer fetch), and only then — cold everywhere —
// the simulator. A cold result is forwarded to the key's owners so the
// next lookup is warm on any node. The warm path never simulates: it is
// bounded by one store lookup plus at most Replicas network hops.
//
// Each execution roots a fleet trace under the key's deterministic trace
// id, records one span per phase, and feeds the phase histograms.
// admitWait is the admission time the caller measured before calling in;
// it becomes the admission span.
func (s *Server) resolve(ctx context.Context, req harness.Request, admitWait time.Duration) api.RunStatus {
	key := s.runner.StoreKey(req)
	begin := time.Now()
	tr := s.traces.Root(key)
	root := tr.Start(0, obs.SpanRequest)
	tr.Add(root, obs.SpanAdmission, "", admitWait)
	s.observePhase("admission", "ok", admitWait)
	finish := func(rs api.RunStatus, outcome string, err error) api.RunStatus {
		tr.End(root, outcome, err)
		s.observeRequest(time.Since(begin), outcome)
		return rs
	}
	rs := api.RunStatus{Key: key, Request: req.String(), ResultURL: "/v1/runs/" + key}

	gid := tr.Start(root, obs.SpanStoreGet)
	gbegin := time.Now()
	if s.store.Contains(key) {
		tr.End(gid, "hit", nil)
		s.observePhase("store", "hit", time.Since(gbegin))
		rs.Status, rs.Source = "hit", "store"
		return finish(rs, "hit-store", nil)
	}
	tr.End(gid, "miss", nil)
	s.observePhase("store", "miss", time.Since(gbegin))

	if s.ring != nil {
		pbegin := time.Now()
		if raw := s.peerFetch(ctx, key, tr, root); raw != nil {
			s.observePhase("peer", "hit", time.Since(pbegin))
			pid := tr.Start(root, obs.SpanStorePut)
			_, err := s.store.PutRaw(raw)
			tr.End(pid, "peer-bytes", err)
			if err == nil {
				rs.Status, rs.Source = "hit", "peer"
				return finish(rs, "hit-peer", nil)
			}
			// A peer handed back bytes our store rejects: treat as a miss.
			s.metrics.Counter(obs.MetricPeerInvalid).Inc()
		} else {
			s.observePhase("peer", "miss", time.Since(pbegin))
		}
	}

	mid := tr.Start(root, obs.SpanSimulate)
	mbegin := time.Now()
	if _, err := s.runner.Run(ctx, req); err != nil {
		tr.End(mid, "", err)
		s.observePhase("sim", "error", time.Since(mbegin))
		rs.Status = "failed"
		rs.Error = &api.Error{Code: api.CodeRunFailed, Message: err.Error()}
		return finish(rs, "failed", err)
	}
	tr.End(mid, "", nil)
	s.observePhase("sim", "ok", time.Since(mbegin))
	rs.Status, rs.Source = "done", "sim"
	// Replication is queued, not awaited, and runs on the server's base
	// context: the response does not wait for peer PUTs, and a client
	// disconnect cannot cancel replication mid-flight. The queued item
	// carries the trace context so the push spans land in this trace.
	qid := tr.Start(root, obs.SpanReplEnqueue)
	s.forward(key, tr.Context(qid))
	tr.End(qid, "", nil)
	return finish(rs, "sim", nil)
}

// ---- handlers ----------------------------------------------------------

// handleRuns is POST /v1/runs: submit a request or a grid. With ?wait=1
// the response blocks until every submitted run completes (store and peer
// hits still answer without simulating); without it, misses are enqueued
// and the client polls GET /v1/runs/{key}.
func (s *Server) handleRuns(w http.ResponseWriter, r *http.Request) {
	s.metrics.Counter(obs.MetricServeRequests).Inc()
	if !s.checkVersion(w, r) {
		return
	}
	var body api.RunsRequest
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		s.writeError(w, http.StatusBadRequest, api.Errorf(api.CodeBadRequest, "bad request body: %v", err))
		return
	}
	if e := checkSchema(body.Schema); e != nil {
		s.writeError(w, http.StatusBadRequest, e)
		return
	}
	specs := body.Requests
	if len(specs) == 0 {
		specs = []api.RunSpec{body.RunSpec}
	}
	reqs, perr := s.parseAll(specs)
	if perr != nil {
		s.writeError(w, http.StatusBadRequest, perr)
		return
	}
	admitBegin := time.Now()
	if !s.admit(len(reqs)) {
		s.throttle(w, len(reqs))
		return
	}
	admitWait := time.Since(admitBegin)
	transferred := 0 // slots handed off to async goroutines

	wait := r.URL.Query().Get("wait") != ""
	out := api.RunsResponse{Schema: api.Schema, Runs: make([]api.RunStatus, len(reqs))}
	status := http.StatusOK
	for i, req := range reqs {
		var rs api.RunStatus
		if wait {
			// The runner single-flights concurrent duplicates, so a grid
			// containing repeats still simulates each point once.
			rs = s.resolve(r.Context(), req, admitWait)
		} else {
			key := s.runner.StoreKey(req)
			rs = api.RunStatus{Key: key, Request: req.String(), ResultURL: "/v1/runs/" + key}
			switch {
			case s.store.Contains(key):
				rs.Status, rs.Source = "hit", "store"
			default:
				rs.Status = s.enqueue(key, req)
				switch rs.Status {
				case "enqueued":
					transferred++
					status = http.StatusAccepted
				case "running":
					status = http.StatusAccepted
				case "failed":
					rs.Error = &api.Error{Code: api.CodeDraining, Message: "server is draining; no new work accepted"}
				}
			}
		}
		out.Runs[i] = rs
	}
	s.release(len(reqs) - transferred)
	s.respond(w, status, out)
}

// enqueue starts req on the scheduler unless that key is already in
// flight; it reports the resulting status. An "enqueued" return transfers
// one admitted queue slot to the background goroutine.
func (s *Server) enqueue(key string, req harness.Request) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.inflight[key] {
		return "running"
	}
	if s.draining || s.baseCtx.Err() != nil {
		return "failed" // draining: no new work
	}
	s.inflight[key] = true
	s.metrics.Counter(obs.MetricServeQueueDepth).Set(int64(len(s.inflight)))
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer s.release(1)
		// Errors are not lost: the failed key stays absent from the store
		// and a ?wait=1 resubmission reports the error inline. resolve
		// consults peers before simulating, same as the synchronous path.
		s.resolve(s.baseCtx, req, 0)
		s.mu.Lock()
		delete(s.inflight, key)
		s.metrics.Counter(obs.MetricServeQueueDepth).Set(int64(len(s.inflight)))
		s.mu.Unlock()
	}()
	return "enqueued"
}

// handleRun is GET /v1/runs/{key}: the stored entry verbatim (200, local
// or fetched from the key's ring owners), a progress report while the run
// is in flight (202), or a 404 envelope. ?local=1 restricts the lookup to
// this node's store — the form peers use, so fetches never cascade.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	s.metrics.Counter(obs.MetricServeRequests).Inc()
	key := r.PathValue("key")
	localOnly := r.URL.Query().Get("local") != ""
	outcome := "miss"
	if localOnly {
		s.metrics.Counter(obs.MetricServedForPeer).Inc()
		// The serving half of a propagated peer fetch: record it into the
		// caller's trace so the assembled view shows both sides of the hop.
		if sc, ok := obs.ParseSpanContext(r.Header.Get(api.TraceHeader)); ok {
			tr := s.traces.Join(sc)
			sid := tr.StartFrom(sc, obs.SpanPeerServe)
			defer func() { tr.End(sid, outcome, nil) }()
		}
	}
	_, raw, err := s.store.Get(key)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, api.Errorf(api.CodeInternal, "%v", err))
		return
	}
	if raw == nil && !localOnly {
		if praw := s.peerFetch(r.Context(), key, nil, 0); praw != nil {
			if _, err := s.store.PutRaw(praw); err == nil {
				s.serveRaw(w, praw, "peer")
				return
			}
			s.metrics.Counter(obs.MetricPeerInvalid).Inc()
		}
	}
	if raw != nil {
		// The raw object file bytes, verbatim: every hit of a key — on any
		// node — serves the identical body.
		outcome = "hit"
		s.serveRaw(w, raw, "hit")
		return
	}
	s.mu.Lock()
	running := s.inflight[key]
	queue := len(s.inflight)
	s.mu.Unlock()
	w.Header().Set(api.StoreHeader, "miss")
	if running {
		s.respond(w, http.StatusAccepted, map[string]any{
			"schema": api.Schema, "key": key, "status": "running", "queueDepth": queue,
		})
		return
	}
	s.writeError(w, http.StatusNotFound,
		api.Errorf(api.CodeNotFound, "no run with key %s (POST /v1/runs to submit)", key))
}

func (s *Server) serveRaw(w http.ResponseWriter, raw []byte, source string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(api.Header, api.Schema)
	w.Header().Set(api.StoreHeader, source)
	w.WriteHeader(http.StatusOK)
	w.Write(raw)
}

// handleReplicate is PUT /v1/runs/{key}: the fleet's internal replication
// path. The body is another node's raw object bytes; they are validated
// and stored verbatim, so replicas stay byte-identical to the original.
func (s *Server) handleReplicate(w http.ResponseWriter, r *http.Request) {
	s.metrics.Counter(obs.MetricServeRequests).Inc()
	key := r.PathValue("key")
	outcome := "rejected"
	if sc, ok := obs.ParseSpanContext(r.Header.Get(api.TraceHeader)); ok {
		tr := s.traces.Join(sc)
		sid := tr.StartFrom(sc, obs.SpanReplRecv)
		defer func() { tr.End(sid, outcome, nil) }()
	}
	raw, err := readAll(r.Body, maxReplicaBytes)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, api.Errorf(api.CodeBadRequest, "read body: %v", err))
		return
	}
	stored, err := s.store.PutRaw(raw)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, api.Errorf(api.CodeBadRequest, "%v", err))
		return
	}
	if stored != key {
		// The bytes were self-consistent but for a different key than the
		// URL claims; the store indexed them under their true address.
		s.writeError(w, http.StatusBadRequest,
			api.Errorf(api.CodeBadRequest, "body is entry %s, not %s", stored, key))
		return
	}
	outcome = "stored"
	s.metrics.Counter(obs.MetricReplicatedIn).Inc()
	s.respond(w, http.StatusOK, map[string]any{"schema": api.Schema, "key": key, "status": "stored"})
}

// handleFigure is GET /v1/figures/{name}: the named figure's rows,
// assembled by the scheduler — which means from the store when it is
// warm, so regenerating a figure over cached runs simulates nothing.
func (s *Server) handleFigure(w http.ResponseWriter, r *http.Request) {
	s.metrics.Counter(obs.MetricServeRequests).Inc()
	name := r.PathValue("name")
	build, ok := s.figureBuilders()[name]
	if !ok {
		s.writeError(w, http.StatusNotFound,
			api.Errorf(api.CodeNotFound, "unknown figure %q (want one of %v)", name, s.figureNames()))
		return
	}
	rows, err := build(r.Context())
	if r.Context().Err() != nil {
		s.writeError(w, http.StatusServiceUnavailable, api.Errorf(api.CodeUnavailable, "%v", r.Context().Err()))
		return
	}
	resp := map[string]any{"schema": api.Schema, "figure": name, "rows": rows}
	if err != nil {
		// Degraded figures still serve their surviving rows, same contract
		// as hintm-bench.
		resp["error"] = err.Error()
	}
	s.respond(w, http.StatusOK, resp)
}

// figureBuilders maps API figure names onto harness builders.
func (s *Server) figureBuilders() map[string]func(context.Context) (any, error) {
	return map[string]func(context.Context) (any, error){
		"fig1": func(ctx context.Context) (any, error) { return s.runner.Fig1(ctx) },
		"fig4": func(ctx context.Context) (any, error) { return s.runner.Fig4(ctx) },
		"fig5": func(ctx context.Context) (any, error) { return s.runner.Fig5(ctx) },
		"fig6": func(ctx context.Context) (any, error) { return s.runner.Fig6(ctx) },
		"fig7": func(ctx context.Context) (any, error) { return s.runner.Fig7(ctx) },
		"fig8": func(ctx context.Context) (any, error) { return s.runner.Fig8(ctx) },
	}
}

func (s *Server) figureNames() []string {
	names := make([]string, 0, 6)
	for name := range s.figureBuilders() {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// handleHealthz is the liveness/readiness probe.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	queue := len(s.inflight)
	active := s.active
	s.mu.Unlock()
	resp := map[string]any{
		"status":        "ok",
		"schema":        store.Schema,
		"api":           api.Schema,
		"storeEntries":  s.store.Len(),
		"queueDepth":    queue,
		"active":        active,
		"queueLimit":    s.queueLimit,
		"uptimeSeconds": int64(time.Since(s.started).Seconds()),
		"buildInfo":     buildInfo(),
	}
	if s.ring != nil {
		resp["node"] = s.self
		resp["peers"] = s.ring.Nodes()
		// The fleet view: per-peer breaker state, replication queue
		// pressure, and anti-entropy progress. Schema documented in
		// DESIGN.md §15.
		fleetView := map[string]any{
			"breakers":           s.health.Snapshot(),
			"replicationQueue":   s.repl.depth(),
			"replicationDropped": s.metrics.Value(obs.MetricReplDropped),
			"repairedKeys":       s.metrics.Value(obs.MetricRepairKeys),
			"sweeps":             s.metrics.Value(obs.MetricAntiEntropySweep),
		}
		if last := atomic.LoadInt64(&s.lastSweepUnix); last > 0 {
			fleetView["lastSweep"] = time.Unix(last, 0).UTC().Format(time.RFC3339)
		}
		resp["fleet"] = fleetView
	}
	s.respond(w, http.StatusOK, resp)
}

// buildInfo reports what binary is serving: the Go toolchain version and,
// when the binary was built inside a git checkout, the VCS revision stamped
// by the toolchain.
func buildInfo() map[string]string {
	info := map[string]string{"goVersion": runtime.Version()}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				info["vcsRevision"] = kv.Value
			case "vcs.time":
				info["vcsTime"] = kv.Value
			case "vcs.modified":
				info["vcsModified"] = kv.Value
			}
		}
	}
	return info
}

// handleMetrics renders the shared registry (store hit/miss/put counters,
// scheduler run counts, fleet peer fetch/hit/forward counters, latency
// histograms, queue depth) in Prometheus text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	s.metrics.Counter(obs.MetricServeQueueDepth).Set(int64(len(s.inflight)))
	s.metrics.Counter(obs.MetricServeActive).Set(int64(s.active))
	s.mu.Unlock()
	s.metrics.Counter(obs.MetricStoreEntries).Set(int64(s.store.Len()))
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	w.Header().Set(api.Header, api.Schema)
	s.metrics.Render(w)
}

// ---- response plumbing -------------------------------------------------

// checkVersion rejects requests pinning an API version this server does
// not speak. Absent header = current version.
func (s *Server) checkVersion(w http.ResponseWriter, r *http.Request) bool {
	switch r.Header.Get(api.Header) {
	case "", api.Schema:
		return true
	}
	s.writeError(w, http.StatusBadRequest,
		api.Errorf(api.CodeBadRequest, "unsupported %s %q (this server speaks %s)",
			api.Header, r.Header.Get(api.Header), api.Schema))
	return false
}

// throttle answers an over-limit submission: 429, a Retry-After derived
// from actual queue pressure, and a typed envelope naming the limit.
func (s *Server) throttle(w http.ResponseWriter, n int) {
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.load(), n, s.queueLimit)))
	e := api.Errorf(api.CodeOverloaded, "work queue full")
	e.Detail = fmt.Sprintf("load %d + submitted %d exceeds queue limit %d; retry after Retry-After seconds",
		s.load(), n, s.queueLimit)
	s.writeError(w, http.StatusTooManyRequests, e)
}

// retryAfterSeconds scales the retry hint with queue pressure: roughly 10
// seconds per full queue's worth of excess, clamped to [1, 30]. A barely
// over-limit submission is told to come right back; one that would double
// the queue is told to wait.
func retryAfterSeconds(load, submitted, limit int) int {
	if limit <= 0 {
		return 1
	}
	excess := load + submitted - limit
	if excess < 0 {
		excess = 0
	}
	secs := (excess*10 + limit - 1) / limit
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return secs
}

// respond writes a v2 success body with the version header.
func (s *Server) respond(w http.ResponseWriter, status int, v any) {
	w.Header().Set(api.Header, api.Schema)
	writeJSON(w, status, v)
}

// writeError writes the typed v2 error envelope.
func (s *Server) writeError(w http.ResponseWriter, status int, e *api.Error) {
	w.Header().Set(api.Header, api.Schema)
	writeJSON(w, status, api.ErrorEnvelope{Schema: api.Schema, Error: e})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// readAll reads r up to limit bytes, erroring beyond it.
func readAll(r io.Reader, limit int64) ([]byte, error) {
	buf, err := io.ReadAll(io.LimitReader(r, limit+1))
	if err != nil {
		return nil, err
	}
	if int64(len(buf)) > limit {
		return nil, fmt.Errorf("body exceeds %d bytes", limit)
	}
	return buf, nil
}
