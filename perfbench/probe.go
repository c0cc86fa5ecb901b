package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hintm/internal/api"
	"hintm/internal/harness"
	"hintm/internal/htm"
	"hintm/internal/server"
	"hintm/internal/sim"
	"hintm/internal/stats"
	"hintm/internal/store"
)

// simTotals sums the simulator's own counters over a set of results.
type simTotals struct {
	steps, cycles         int64
	accesses, txOps       uint64
	l1Acc, l1Miss         uint64
	l2Acc, l2Miss, busOps uint64
	tlbMiss, trans, minor uint64
	commits, fallback     uint64
	aborts                map[htm.AbortReason]uint64
	lostCycles            int64
}

func totals(recs []resultRec) simTotals {
	t := simTotals{aborts: make(map[htm.AbortReason]uint64)}
	for _, r := range recs {
		t.add(r.res, 1)
	}
	return t
}

// add accumulates n copies of res.
func (t *simTotals) add(res *harness.Result, n uint64) {
	t.steps += res.Steps * int64(n)
	t.cycles += res.Cycles * int64(n)
	acc := res.TxAccesses() + res.NonTxAccesses + res.SuspendedAccesses
	t.accesses += acc * n
	t.txOps += (res.Commits + res.FallbackCommits + res.TotalAborts()) * n
	t.l1Acc += (res.Cache.L1Hits + res.Cache.L1Misses) * n
	t.l1Miss += res.Cache.L1Misses * n
	t.l2Acc += (res.Cache.L2Hits + res.Cache.L2Misses) * n
	t.l2Miss += res.Cache.L2Misses * n
	t.busOps += res.Cache.BusOps * n
	t.tlbMiss += res.VM.TLBMisses * n
	t.trans += res.VM.Transitions * n
	t.minor += res.VM.MinorFaults * n
	t.commits += res.Commits * n
	t.fallback += res.FallbackCommits * n
	for reason, c := range res.Aborts {
		t.aborts[reason] += c * n
	}
	for _, c := range res.CyclesLost {
		t.lostCycles += c * int64(n)
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// foldProfile folds the traced pass's CPU profile and adds every layer's
// CPU share. An unattributed share above the bound fails the run.
func foldProfile(o *outcome, data []byte) (layerSplit, error) {
	samples, err := parseProfile(data)
	if err != nil {
		return layerSplit{}, err
	}
	split := fold(samples)
	for _, l := range layerNames {
		o.layerAdd(l+".cpu_share", "ratio", split.share(l))
	}
	o.layerAdd("fold.unattributed_share", "ratio", split.share(unattributed))
	if err := split.check(samples); err != nil {
		o.broken = append(o.broken, err.Error())
	}
	return split, nil
}

// simLayers adds the simulator-side per-layer metrics: what the simulated
// machine did (from the results' counters, t) and what it cost the host
// (from a profile covering passes repetitions of that work).
func simLayers(o *outcome, t simTotals, split layerSplit, passes int) {
	simRun := float64(split.SimRunNanos) / 1e9 / float64(passes)
	o.layerAdd("sim.run_s", "s", simRun)
	o.layerAdd("sim.steps", "count", float64(t.steps))
	o.layerAdd("sim.cycles", "count", float64(t.cycles))
	o.layerAdd("sim.host_ns_per_step", "ns", ratio(simRun*1e9, float64(t.steps)))
	o.layerAdd("sim.env_access_frac", "ratio", ratio(float64(t.accesses+t.txOps), float64(t.steps)))
	o.layerAdd("vmem.tlb_misses", "count", float64(t.tlbMiss))
	o.layerAdd("vmem.tlb_miss_ratio", "ratio", ratio(float64(t.tlbMiss), float64(t.accesses)))
	o.layerAdd("vmem.transitions", "count", float64(t.trans))
	o.layerAdd("vmem.minor_faults", "count", float64(t.minor))
	o.layerAdd("cache.l1_accesses", "count", float64(t.l1Acc))
	o.layerAdd("cache.l1_miss_ratio", "ratio", ratio(float64(t.l1Miss), float64(t.l1Acc)))
	o.layerAdd("cache.l2_miss_ratio", "ratio", ratio(float64(t.l2Miss), float64(t.l2Acc)))
	o.layerAdd("cache.bus_ops", "count", float64(t.busOps))
	o.layerAdd("htm.commits", "count", float64(t.commits))
	o.layerAdd("htm.fallback_commits", "count", float64(t.fallback))
	var aborts uint64
	for _, reason := range htm.AbortReasons {
		o.layerAdd("htm.aborts."+reason.String(), "count", float64(t.aborts[reason]))
		aborts += t.aborts[reason]
	}
	o.layerAdd("htm.commit_ratio", "ratio", ratio(float64(t.commits), float64(t.commits+aborts)))
	o.layerAdd("htm.lost_cycle_frac", "ratio", ratio(float64(t.lostCycles), float64(t.cycles)))
}

// probeLayers times the store, harness and (optionally) server layers'
// public entry points over the workload's own results, one call at a time:
//
//   - store.Put of every result into a fresh store, then store.Get of
//     every key, three rounds;
//   - harness.Runner.Run of every request, one at a time, on a fresh runner
//     over that store (every call a store hit);
//   - the workload's figure builders on that runner's now-warm memo;
//   - with serverProbe, server.Handler().ServeHTTP per route through a
//     recorder, and GETs over loopback to split network from handler time.
func probeLayers(ctx context.Context, c config, o *outcome, opts harness.Options, recs []resultRec,
	figures func(context.Context, *harness.Runner) error, serverProbe bool) error {
	dir, err := freshDir(c, "probe")
	if err != nil {
		return err
	}
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	var put float64
	for _, r := range recs {
		t0 := time.Now()
		if _, err := st.Put(store.Entry{Request: r.pre, Result: r.raw}); err != nil {
			return err
		}
		put += time.Since(t0).Seconds()
	}
	var gets []float64
	for round := 0; round < 3; round++ {
		for _, r := range recs {
			t0 := time.Now()
			if e, _, err := st.Get(r.key); err != nil || e == nil {
				return fmt.Errorf("probe: store get %s: %v", r.key, err)
			}
			gets = append(gets, us(time.Since(t0)))
		}
	}
	var size int64
	for _, ie := range st.List() {
		size += ie.Size
	}
	o.layerAdd("store.put_s", "s", put)
	o.layerAdd("store.get_us", "us", stats.Median(gets))
	o.layerAdd("store.objects", "count", float64(st.Len()))
	o.layerAdd("store.bytes", "bytes", float64(size))

	opts.Store = st
	r := harness.NewRunner(opts)
	var runs []float64
	for _, rec := range recs {
		t0 := time.Now()
		if _, err := r.Run(ctx, rec.req); err != nil {
			return err
		}
		runs = append(runs, us(time.Since(t0)))
	}
	o.layerAdd("harness.run_us", "us", stats.Median(runs))
	o.layerAdd("harness.store_hits", "count", float64(r.Stats().StoreHits))
	t0 := time.Now()
	if err := figures(ctx, r); err != nil {
		return err
	}
	o.layerAdd("harness.reduce_s", "s", time.Since(t0).Seconds())
	if !serverProbe {
		return nil
	}
	return probeServer(ctx, o, st, opts, recs)
}

// probeServer measures the HTTP layer over a store of the workload's
// results without driving a load: handler time per route through
// ServeHTTP, and the loopback round trip around it.
func probeServer(ctx context.Context, o *outcome, st *store.Store, opts harness.Options, recs []resultRec) error {
	opts.Store = nil
	srv := server.New(server.Config{Store: st, Options: opts})
	rt := newRouteTimer(srv.Handler())
	rt.on.Store(true)
	serve := func(method, path string, body []byte) error {
		req := httptest.NewRequest(method, path, bytes.NewReader(body))
		w := httptest.NewRecorder()
		rt.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			return fmt.Errorf("probe: %s %s: status %d: %s", method, path, w.Code, w.Body.String())
		}
		return nil
	}
	for round := 0; round < 3; round++ {
		for _, rec := range recs {
			if err := serve("GET", "/v1/runs/"+rec.key, nil); err != nil {
				return err
			}
			body, err := runSpecBody(rec.req)
			if err != nil {
				return err
			}
			if err := serve("POST", "/v1/runs?wait=1", body); err != nil {
				return err
			}
		}
	}
	// Fig. 7's cells are in both batch workloads' results; after the first
	// call the server rebuilds it from its memo.
	for i := 0; i < 5; i++ {
		if err := serve("GET", "/v1/figures/fig7", nil); err != nil {
			return err
		}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: rt}
	done := make(chan struct{})
	go func() {
		defer close(done)
		hs.Serve(ln)
	}()
	defer func() {
		hs.Close()
		<-done
	}()
	client := newClient()
	defer client.CloseIdleConnections()
	base := "http://" + ln.Addr().String()
	var rtts []float64
	buf := new(bytes.Buffer)
	for round := 0; round < 3; round++ {
		for _, rec := range recs {
			t0 := time.Now()
			code, err := fetch(ctx, client, "GET", base+"/v1/runs/"+rec.key, nil, buf)
			if err != nil || code != http.StatusOK {
				return fmt.Errorf("probe: loopback GET: %d %v", code, err)
			}
			rtts = append(rtts, us(time.Since(t0)))
		}
	}
	routeLayers(o, rt, stats.Median(rtts))
	return nil
}

// routeLayers adds the server's per-route handler times and the network
// share of a GET: client round trip minus handler time, at the median.
func routeLayers(o *outcome, rt *routeTimer, getRTT float64) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for _, route := range routes {
		o.layerAdd("server.handler_us."+route, "us", stats.Median(rt.d[route]))
	}
	o.layerAdd("server.net_us", "us", getRTT-stats.Median(rt.d["get_run"]))
}

// routes are the API routes the benchmark drives.
var routes = []string{"get_run", "post_run", "get_figure"}

func routeOf(r *http.Request) string {
	switch {
	case r.Method == http.MethodPost:
		return "post_run"
	case strings.HasPrefix(r.URL.Path, "/v1/figures/"):
		return "get_figure"
	default:
		return "get_run"
	}
}

// us converts a duration to microseconds.
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// runSpecBody is the POST /v1/runs body for req.
func runSpecBody(req harness.Request) ([]byte, error) {
	return json.Marshal(api.RunsRequest{
		Schema: api.Schema,
		RunSpec: api.RunSpec{
			Workload: req.Workload,
			Scale:    req.Scale.String(),
			HTM:      apiSpelling(htmSpellings, sim.ParseHTMKind, req.HTM),
			Hints:    apiSpelling(hintSpellings, sim.ParseHintMode, req.Hints),
			SMT:      req.SMT,
		},
	})
}

// The API spellings that sim.ParseHTMKind and sim.ParseHintMode accept.
var (
	htmSpellings  = []string{"p8", "p8s", "l1tm", "infcap", "stm"}
	hintSpellings = []string{"none", "st", "dyn", "full"}
)

// apiSpelling inverts parse: it returns the spelling that parses to want,
// or "" when none does (the server then rejects the request).
func apiSpelling[T comparable](spellings []string, parse func(string) (T, error), want T) string {
	for _, s := range spellings {
		if v, err := parse(s); err == nil && v == want {
			return s
		}
	}
	return ""
}

// newClient returns a keep-alive client for the benchmark's clients.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: workers,
		DisableCompression:  true,
	}}
}

// fetch performs one request and reads the whole body into buf.
func fetch(ctx context.Context, c *http.Client, method, url string, body []byte, buf *bytes.Buffer) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

// routeTimer wraps the server's handler and, while on, records each
// request's handler time by route.
type routeTimer struct {
	h  http.Handler
	on atomic.Bool
	mu sync.Mutex
	d  map[string][]float64
}

func newRouteTimer(h http.Handler) *routeTimer {
	return &routeTimer{h: h, d: make(map[string][]float64)}
}

func (rt *routeTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !rt.on.Load() {
		rt.h.ServeHTTP(w, r)
		return
	}
	t0 := time.Now()
	rt.h.ServeHTTP(w, r)
	d := us(time.Since(t0))
	route := routeOf(r)
	rt.mu.Lock()
	rt.d[route] = append(rt.d[route], d)
	rt.mu.Unlock()
}
