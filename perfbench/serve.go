package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"hintm/internal/api"
	"hintm/internal/harness"
	"hintm/internal/obs"
	"hintm/internal/server"
	"hintm/internal/sim"
	"hintm/internal/stats"
	"hintm/internal/store"
	"hintm/internal/workloads"
)

// serve-warm drives an in-process single-node hintm-served over a store
// filled during set-up with the small-scale figure grid. Two closed-loop
// keep-alive clients send a fixed, seeded mix in blocks of blockSize
// requests: GET /v1/runs/{key} (a store read), POST /v1/runs?wait=1 for a
// stored request (parse, key derivation, index check), and once per block
// each figure (fig1 re-simulates its profiled runs on every request).
//
// The mix is an assumption, not measured traffic; no trace of real use
// exists. GETs and POSTs are drawn half and half because the repository's
// smoke scripts use the API that way: submit a spec, then fetch its result
// by key. Keys are uniform over the stored grid, as hintm-load cycles
// evenly through its request pool. Each figure once per block is a small
// share (6 in 6000) that keeps fig1's re-simulation visible without letting
// it dominate the block.

const (
	blockSize = 6000
	// getShare is the GET /v1/runs fraction of the non-figure requests.
	getShare = 0.5
)

// serveFigures are the figure routes the mix requests, once per block each.
var serveFigures = []string{"fig1", "fig4", "fig5", "fig6", "fig7", "fig8"}

// serveEnv is one set-up server with everything a client needs to check it.
type serveEnv struct {
	dir     string
	st      *store.Store
	opts    harness.Options
	metrics *obs.Metrics
	rt      *routeTimer
	hs      *http.Server
	done    chan struct{}
	base    string
	recs    []resultRec
	keys    map[string]*keyResp
	// figResp is each figure's response recorded at warm-up.
	figResp map[string][]byte
}

// keyResp is what the clients send and expect for one stored key.
type keyResp struct {
	body     []byte // the stored object a GET must return
	post     []byte // the POST /v1/runs body
	postResp []byte // the POST response recorded at warm-up
}

func (e *serveEnv) close() {
	e.hs.Close()
	<-e.done
}

// serveSetup fills a fresh store with the small figure grid, starts the
// server on loopback and records every expected response.
func serveSetup(ctx context.Context, c config) (*serveEnv, error) {
	dir, err := freshDir(c, "serve")
	if err != nil {
		return nil, err
	}
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	opts := harness.Options{Scale: workloads.Small, LargeScale: workloads.Small, Seed: c.seed, Workers: workers}
	fill := opts
	fill.Store = st
	sum, err := harness.NewRunner(fill).BenchResults(ctx)
	if err != nil {
		return nil, err
	}
	if len(sum.Errors) > 0 {
		return nil, fmt.Errorf("serve-warm: figure grid degraded: %v", sum.Errors)
	}
	e := &serveEnv{
		dir: dir, st: st, opts: opts, metrics: obs.NewMetrics(), done: make(chan struct{}),
		keys: map[string]*keyResp{}, figResp: map[string][]byte{},
	}
	if e.recs, err = recsFromStore(st); err != nil {
		return nil, err
	}
	srv := server.New(server.Config{Store: st, Options: opts, Metrics: e.metrics})
	e.rt = newRouteTimer(srv.Handler())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e.base = "http://" + ln.Addr().String()
	e.hs = &http.Server{Handler: e.rt}
	go func() {
		defer close(e.done)
		e.hs.Serve(ln)
	}()

	// Warm-up: every route once, recording the bodies later requests must
	// reproduce byte for byte.
	client := newClient()
	defer client.CloseIdleConnections()
	buf := new(bytes.Buffer)
	for _, rec := range e.recs {
		_, raw, err := st.Get(rec.key)
		if err != nil || raw == nil {
			e.close()
			return nil, fmt.Errorf("serve-warm: store get %s: %v", rec.key, err)
		}
		k := &keyResp{body: raw}
		e.keys[rec.key] = k
		if k.post, err = runSpecBody(rec.req); err != nil {
			e.close()
			return nil, err
		}
		code, err := fetch(ctx, client, "POST", e.base+"/v1/runs?wait=1", k.post, buf)
		var rr api.RunsResponse
		if err == nil && code == http.StatusOK {
			err = json.Unmarshal(buf.Bytes(), &rr)
		}
		if err != nil || code != http.StatusOK || len(rr.Runs) != 1 || rr.Runs[0].Key != rec.key || rr.Runs[0].Status != "hit" {
			e.close()
			return nil, fmt.Errorf("serve-warm: warm POST for %s: status %d, %v: %s", rec.key, code, err, buf.String())
		}
		k.postResp = bytes.Clone(buf.Bytes())
	}
	for _, fig := range serveFigures {
		code, err := fetch(ctx, client, "GET", e.base+"/v1/figures/"+fig, nil, buf)
		if err != nil || code != http.StatusOK {
			e.close()
			return nil, fmt.Errorf("serve-warm: warm GET %s: status %d, %v", fig, code, err)
		}
		e.figResp[fig] = bytes.Clone(buf.Bytes())
	}
	return e, nil
}

// reqKind is a route of the mix.
type reqKind int

const (
	getRun reqKind = iota
	postRun
	getFigure
)

// plannedReq is one request of the mix.
type plannedReq struct {
	kind reqKind
	key  string
	fig  string
}

// planBlock draws one block of the mix from the seeded stream: the figures
// at positions in the first 80% of the block (so a slow figure does not
// leave one client idle at the block's end), the rest GETs and POSTs of
// uniformly drawn keys.
func planBlock(rng *splitmix, keys []string) []plannedReq {
	plan := make([]plannedReq, blockSize)
	for i := range plan {
		kind := postRun
		if rng.float() < getShare {
			kind = getRun
		}
		plan[i] = plannedReq{kind: kind, key: keys[rng.next()%uint64(len(keys))]}
	}
	for _, fig := range serveFigures {
		for {
			i := rng.next() % (blockSize * 8 / 10)
			if plan[i].kind != getFigure {
				plan[i] = plannedReq{kind: getFigure, fig: fig}
				break
			}
		}
	}
	return plan
}

// splitmix is the seeded request stream (SplitMix64).
type splitmix struct{ s uint64 }

func (r *splitmix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *splitmix) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// blockResult is what one block's clients observed.
type blockResult struct {
	wall, cpu float64
	lat       []float64 // µs per request
	getLat    []float64 // µs per GET /v1/runs
	failed    int64
	fig1      int
}

// runBlock sends one planned block through the two clients.
func (e *serveEnv) runBlock(ctx context.Context, clients []*http.Client, plan []plannedReq) blockResult {
	var next atomic.Int64
	parts := make([]blockResult, len(clients))
	var wg sync.WaitGroup
	u0 := readUsage()
	for ci := range clients {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			part := &parts[ci]
			part.lat = make([]float64, 0, blockSize/len(clients)+blockSize/10)
			buf := new(bytes.Buffer)
			for {
				i := next.Add(1) - 1
				if i >= int64(len(plan)) || ctx.Err() != nil {
					return
				}
				q := plan[i]
				var code int
				var err error
				var want []byte
				t0 := time.Now()
				k := e.keys[q.key]
				switch q.kind {
				case getRun:
					code, err = fetch(ctx, clients[ci], "GET", e.base+"/v1/runs/"+q.key, nil, buf)
					want = k.body
				case postRun:
					code, err = fetch(ctx, clients[ci], "POST", e.base+"/v1/runs?wait=1", k.post, buf)
					want = k.postResp
				default:
					code, err = fetch(ctx, clients[ci], "GET", e.base+"/v1/figures/"+q.fig, nil, buf)
					want = e.figResp[q.fig]
				}
				d := us(time.Since(t0))
				part.lat = append(part.lat, d)
				if err != nil || code != http.StatusOK || !bytes.Equal(buf.Bytes(), want) {
					part.failed++
				}
				switch {
				case q.kind == getRun:
					part.getLat = append(part.getLat, d)
				case q.fig == "fig1":
					part.fig1++
				}
			}
		}(ci)
	}
	wg.Wait()
	var out blockResult
	out.wall, out.cpu = span(u0, readUsage())
	for _, p := range parts {
		out.lat = append(out.lat, p.lat...)
		out.getLat = append(out.getLat, p.getLat...)
		out.failed += p.failed
		out.fig1 += p.fig1
	}
	return out
}

// phase runs blocks until seconds have passed (at least one).
func (e *serveEnv) phase(ctx context.Context, rng *splitmix, seconds float64) ([]blockResult, error) {
	keys := sortedKeys(e.keys)
	clients := make([]*http.Client, workers)
	for i := range clients {
		clients[i] = newClient()
		defer clients[i].CloseIdleConnections()
	}
	var blocks []blockResult
	start := time.Now()
	for len(blocks) == 0 || time.Since(start).Seconds() < seconds {
		plan := planBlock(rng, keys)
		b := e.runBlock(ctx, clients, plan)
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		blocks = append(blocks, b)
	}
	return blocks, nil
}

func runServe(ctx context.Context, c config) (*outcome, error) {
	o := &outcome{}
	var setups []float64
	var env *serveEnv
	for i := 0; i < serveSetupReps; i++ {
		if env != nil {
			env.close()
		}
		settle()
		u0 := readUsage()
		var err error
		if env, err = serveSetup(ctx, c); err != nil {
			return nil, err
		}
		_, cpu := span(u0, readUsage())
		setups = append(setups, cpu)
	}
	defer env.close()

	ref, err := loadReference(c)
	if err != nil {
		return nil, err
	}
	if c.record {
		if err := record(c, env.recs); err != nil {
			return nil, err
		}
	}
	if c.corrupt {
		// The expected bytes were read before the corruption: every GET of
		// this key now serves bytes the check must reject.
		if err := corruptStoreObject(env.dir, env.recs[0].key); err != nil {
			return nil, err
		}
	}
	att, failed, note := ref.check(env.recs)
	o.attempted, o.failed = att, failed
	o.notes = append(o.notes, "filled store: "+note)

	rng := &splitmix{s: c.seed}
	var refRate float64
	if c.trace {
		settle()
		blocks, err := env.phase(ctx, rng, c.seconds/2)
		if err != nil {
			return nil, err
		}
		n, wall := 0, 0.0
		for _, b := range blocks {
			n, wall = n+len(b.lat), wall+b.wall
		}
		refRate = float64(n) / wall
	}

	var prof bytes.Buffer
	var rt0 rtStats
	settle()
	m0 := env.metrics.Snapshot()
	if c.trace {
		env.rt.on.Store(true)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
		rt0 = readRuntime()
	}
	blocks, err := env.phase(ctx, rng, c.seconds)
	var rt1 rtStats
	if c.trace {
		rt1 = readRuntime()
		pprof.StopCPUProfile()
		env.rt.on.Store(false)
	}
	if err != nil {
		return nil, err
	}
	m1 := env.metrics.Snapshot()

	var walls, cpus, lat, getLat []float64
	var n, fig1 int
	var wall float64
	for _, b := range blocks {
		walls, cpus = append(walls, b.wall), append(cpus, b.cpu)
		lat = append(lat, b.lat...)
		getLat = append(getLat, b.getLat...)
		n += len(b.lat)
		wall += b.wall
		fig1 += b.fig1
		o.failed += b.failed
	}
	o.attempted += int64(n)
	p := summarize(lat)
	o.notes = append(o.notes, fmt.Sprintf("%d blocks of %d requests; every response compared byte for byte with the stored object or warm-up body; latency p50 and p99 of %d requests (highest percentile with %d beyond: p%g = %.1f us)",
		len(blocks), blockSize, p.N, minTail, p.TailQ, p.Tail))

	o.e2eAdd("wall_s", "s", stats.Median(walls))
	o.e2eAdd("cpu_s", "s", stats.Median(cpus))
	// The only simulation a warm server does is Fig. 1's profiled runs:
	// reproduce them once, after the timed phase, to count what the
	// phase's fig1 requests simulated.
	profiled, err := profiledResults(ctx, env.opts)
	if err != nil {
		return nil, err
	}
	tot := totals(nil)
	for _, res := range profiled {
		tot.add(res, uint64(fig1))
	}
	o.e2eAdd("sim_instr_per_s", "instr/s", float64(tot.steps)/wall)
	o.e2eAdd("sim_cycles_per_s", "cycles/s", float64(tot.cycles)/wall)
	o.e2eAdd("req_per_s", "req/s", float64(n)/wall)
	o.e2eAdd("latency_p50_us", "us", p.P50)
	o.e2eAdd("latency_p99_us", "us", p.P99)
	o.e2eAdd("max_rss_mb", "MB", maxRSSMB())
	o.e2eAdd("setup_s", "s", stats.Median(setups))
	if !c.trace {
		return o, nil
	}

	// Module build and classification happen inside the store fill; time
	// them on their own for the layer split.
	var builds, classifies []float64
	for i := 0; i < serveSetupReps; i++ {
		bs, cs, err := buildModules(gridModules(workloads.Small))
		if err != nil {
			return nil, err
		}
		builds, classifies = append(builds, bs), append(classifies, cs)
	}
	o.layerAdd("workloads.build_s", "s", stats.Median(builds))
	o.layerAdd("classify.run_s", "s", stats.Median(classifies))
	split, err := foldProfile(o, prof.Bytes())
	if err != nil {
		return nil, err
	}
	simLayers(o, tot, split, 1)
	delta := func(name string) float64 { return float64(m1[name] - m0[name]) }
	o.layerAdd("harness.sim_runs", "count", delta(obs.MetricSimRuns))
	o.layerAdd("harness.forked_runs", "count", delta(obs.MetricPrefixForked))
	o.layerAdd("harness.fig1_profiled_runs", "count", float64(fig1*len(profiled)))
	if err := probeLayers(ctx, c, o, env.opts, env.recs, gridMedium.figures, false); err != nil {
		return nil, err
	}
	routeLayers(o, env.rt, stats.Median(getLat))
	runtimeLayers(o, rt0, rt1)
	o.layerAdd("trace.overhead_frac", "ratio", refRate/(float64(n)/wall)-1)
	return o, nil
}

// profiledResults runs Fig. 1's profiled simulation for every paper
// workload under opts.
func profiledResults(ctx context.Context, opts harness.Options) ([]*sim.Result, error) {
	r := harness.NewRunner(opts)
	var out []*sim.Result
	for _, spec := range workloads.All() {
		res, _, err := r.RunProfiled(ctx, harness.Request{Workload: spec.Name, Scale: opts.Scale, HTM: sim.HTMInfCap, Hints: sim.HintNone, SMT: 1})
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}
