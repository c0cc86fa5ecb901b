package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"time"

	"hintm/internal/classify"
	"hintm/internal/harness"
	"hintm/internal/sim"
	"hintm/internal/stats"
	"hintm/internal/store"
	"hintm/internal/workloads"
)

// A batch workload runs a fixed grid of simulations on a fresh
// harness.Runner per pass, the way a reproducer regenerates figures.

// modKey names one module a workload builds: workload, SMT factor, scale.
type modKey struct {
	name  string
	smt   int
	scale workloads.Scale
}

type batch struct {
	// options returns the runner options for seed (Store is set per pass).
	options func(seed uint64) harness.Options
	// useStore gives each pass a fresh, empty result store.
	useStore bool
	// modules are the modules the grid builds and classifies; set-up builds
	// them on their own to time that layer.
	modules []modKey
	// pass runs one unit of work and returns how many profiled Fig. 1 runs
	// it made.
	pass func(ctx context.Context, r *harness.Runner) (fig1Runs int, err error)
	// requests lists the grid's distinct requests when there is no store to
	// read them back from.
	requests func(o harness.Options) []harness.Request
	// figures calls the workload's figure builders (for the warm-memo
	// reduction probe).
	figures func(ctx context.Context, r *harness.Runner) error
	// warmup runs one untimed pass first: the first pass of a process pays
	// for growing the heap, which is a large share of a short pass.
	warmup bool
	// setupReps is how many set-ups one timed set-up group makes: about
	// 100 ms of work, so that one group is not a few milliseconds of noise.
	setupReps int
}

// figApps are the applications of the harness's Fig. 7/8 studies;
// memApps the four of them with the most translation and cache traffic.
var (
	figApps = []string{"bayes", "genome", "labyrinth", "tpcc-no", "vacation", "yada"}
	memApps = []string{"bayes", "tpcc-no", "vacation", "yada"}
)

// gridMedium is `hintm-bench -scale medium -large medium -workers 2
// -store <fresh dir> all`: RenderAll, then BenchResults, on one runner.
var gridMedium = &batch{
	options: func(seed uint64) harness.Options {
		return harness.Options{Scale: workloads.Medium, LargeScale: workloads.Medium, Seed: seed, Workers: workers}
	},
	useStore:  true,
	modules:   gridModules(workloads.Medium),
	setupReps: 30,
	pass: func(ctx context.Context, r *harness.Runner) (int, error) {
		err := r.RenderAll(ctx, io.Discard)
		sum, berr := r.BenchResults(ctx)
		if berr == nil && len(sum.Errors) > 0 {
			berr = fmt.Errorf("figures degraded: %v", sum.Errors)
		}
		// RenderAll and BenchResults each simulate Fig. 1's profiled runs.
		return 2 * len(workloads.All()), errors.Join(err, berr)
	},
	figures: func(ctx context.Context, r *harness.Runner) error {
		// Fig. 1 is left out: its profiled runs are simulated on every call.
		_, e4 := r.Fig4(ctx)
		_, e5 := r.Fig5(ctx)
		_, e6 := r.Fig6(ctx)
		_, e7 := r.Fig7(ctx)
		_, e8 := r.Fig8(ctx)
		return errors.Join(e4, e5, e6, e7, e8)
	},
}

// fig7LargeMem is Runner.Fig7 at the large scale over memApps, no store.
var fig7LargeMem = &batch{
	options: func(seed uint64) harness.Options {
		return harness.Options{Scale: workloads.Large, LargeScale: workloads.Large, Filter: memApps, Seed: seed, Workers: workers}
	},
	modules:   appModules(memApps, 1, workloads.Large),
	warmup:    true,
	setupReps: 120,
	pass: func(ctx context.Context, r *harness.Runner) (int, error) {
		_, err := r.Fig7(ctx)
		return 0, err
	},
	requests: func(o harness.Options) []harness.Request {
		var reqs []harness.Request
		for _, app := range o.Filter {
			for _, cell := range []struct {
				htm   sim.HTMKind
				hints sim.HintMode
			}{
				{sim.HTMP8S, sim.HintNone}, {sim.HTMP8S, sim.HintStatic}, {sim.HTMP8S, sim.HintDynamic},
				{sim.HTMP8S, sim.HintFull}, {sim.HTMInfCap, sim.HintNone},
			} {
				reqs = append(reqs, harness.Request{Workload: app, Scale: o.LargeScale, HTM: cell.htm, Hints: cell.hints, SMT: 1})
			}
		}
		return reqs
	},
	figures: func(ctx context.Context, r *harness.Runner) error {
		_, err := r.Fig7(ctx)
		return err
	},
}

// gridModules lists the modules the full figure grid builds at scale: every
// paper workload single-threaded per core, plus Fig. 8's SMT-2 builds.
func gridModules(scale workloads.Scale) []modKey {
	var out []modKey
	for _, s := range workloads.All() {
		out = append(out, modKey{s.Name, 1, scale})
	}
	return append(out, appModules(figApps, 2, scale)...)
}

func appModules(apps []string, smt int, scale workloads.Scale) []modKey {
	out := make([]modKey, len(apps))
	for i, a := range apps {
		out[i] = modKey{a, smt, scale}
	}
	return out
}

// buildModules builds and classifies every module once through the public
// workloads.Spec.Build and classify.Run, returning the seconds each took.
func buildModules(mods []modKey) (build, cls float64, err error) {
	for _, mk := range mods {
		spec, err := workloads.ByName(mk.name)
		if err != nil {
			return 0, 0, err
		}
		t0 := time.Now()
		m := spec.Build(spec.DefaultThreads*mk.smt, mk.scale)
		t1 := time.Now()
		if _, err := classify.Run(m); err != nil {
			return 0, 0, fmt.Errorf("classify %s: %w", mk.name, err)
		}
		build += t1.Sub(t0).Seconds()
		cls += time.Since(t1).Seconds()
	}
	return build, cls, nil
}

// batchPass is one measured pass.
type batchPass struct {
	wall, cpu float64
	fig1Runs  int
	recs      []resultRec
	stats     harness.RunStats
	opts      harness.Options
	err       error
}

// onePass runs one pass on a fresh runner (and store) and collects its
// results.
func (b *batch) onePass(ctx context.Context, c config) (*batchPass, error) {
	p := &batchPass{opts: b.options(c.seed)}
	var dir string
	if b.useStore {
		var err error
		if dir, err = freshDir(c, "store"); err != nil {
			return nil, err
		}
		if p.opts.Store, err = store.Open(dir); err != nil {
			return nil, err
		}
	}
	r := harness.NewRunner(p.opts)
	u0 := readUsage()
	p.fig1Runs, p.err = b.pass(ctx, r)
	p.wall, p.cpu = span(u0, readUsage())
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	p.stats = r.Stats()
	var err error
	if b.useStore {
		if c.corrupt {
			if err := corruptStoreObject(dir, p.opts.Store.List()[0].Key); err != nil {
				return nil, err
			}
		}
		p.recs, err = recsFromStore(p.opts.Store)
	} else {
		p.recs, err = recsFromRunner(ctx, r, b.requests(p.opts))
		// Every checked result must come out of the timed pass's memo: a
		// request the pass did not make would be simulated here, unchecked.
		if extra := r.Stats().SimRuns - p.stats.SimRuns; err == nil && extra > 0 {
			p.err = errors.Join(p.err, fmt.Errorf("%d checked requests were not made by the pass", extra))
		}
		if err == nil && c.corrupt {
			corruptResult(p.recs[0].raw)
		}
	}
	return p, err
}

// runBatch measures a batch workload: setupGroups timed groups of
// b.setupReps set-ups, then passes until the measurement time is used (at
// least one). setup_s is the median group's CPU time per set-up. A set-up
// builds and classifies the grid's modules; it opens no store, because
// creating a store's files costs a time that varies tenfold with the
// file system and between minutes, and the store's write cost is already
// in every pass. A traced run first makes one untraced reference pass,
// then profiles its passes and probes the layers.
func runBatch(ctx context.Context, c config, b *batch) (*outcome, error) {
	o := &outcome{}
	var setups, builds, classifies []float64
	for g := 0; g < setupGroups; g++ {
		settle()
		u0 := readUsage()
		var bs, cs float64
		for i := 0; i < b.setupReps; i++ {
			b1, c1, err := buildModules(b.modules)
			if err != nil {
				return nil, err
			}
			bs, cs = bs+b1, cs+c1
		}
		n := float64(b.setupReps)
		_, cpu := span(u0, readUsage())
		setups = append(setups, cpu/n)
		builds, classifies = append(builds, bs/n), append(classifies, cs/n)
	}

	ref, err := loadReference(c)
	if err != nil {
		return nil, err
	}
	// A traced run's untimed pass doubles as the untraced reference.
	var refWall float64
	if b.warmup || c.trace {
		settle()
		p, err := b.onePass(ctx, c)
		if err != nil {
			return nil, err
		}
		refWall = p.wall
	}

	var prof bytes.Buffer
	var rt0 rtStats
	if c.trace {
		settle()
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
		rt0 = readRuntime()
	}
	var passes []*batchPass
	start := time.Now()
	for len(passes) == 0 || time.Since(start).Seconds() < c.seconds {
		settle()
		p, err := b.onePass(ctx, c)
		if err != nil {
			if c.trace {
				pprof.StopCPUProfile()
			}
			return nil, err
		}
		passes = append(passes, p)
	}
	var rt1 rtStats
	if c.trace {
		rt1 = readRuntime()
		pprof.StopCPUProfile()
	}

	var walls, cpus, instr, cycles []float64
	_, first := digestLines(passes[0].recs)
	if c.record {
		if err := record(c, passes[0].recs); err != nil {
			return nil, err
		}
	}
	for _, p := range passes {
		att, failed, note := ref.check(p.recs)
		// Passes of one run must agree with each other too, which also
		// checks seeds without a committed digest.
		if _, d := digestLines(p.recs); d != first {
			note += "; MISMATCH: this pass's digest differs from the first pass's"
			failed = att
		}
		if p.err != nil {
			note += "; pass error: " + p.err.Error()
			failed = max(failed, 1)
		}
		o.attempted += att
		o.failed += failed
		o.notes = append(o.notes, note)
		t := totals(p.recs)
		walls, cpus = append(walls, p.wall), append(cpus, p.cpu)
		instr = append(instr, float64(t.steps)/p.wall)
		cycles = append(cycles, float64(t.cycles)/p.wall)
	}
	o.notes = append(o.notes, fmt.Sprintf("%d passes of %.3f s", len(passes), walls))

	o.e2eAdd("wall_s", "s", stats.Median(walls))
	o.e2eAdd("cpu_s", "s", stats.Median(cpus))
	o.e2eAdd("sim_instr_per_s", "instr/s", stats.Median(instr))
	o.e2eAdd("sim_cycles_per_s", "cycles/s", stats.Median(cycles))
	o.e2eAdd("max_rss_mb", "MB", maxRSSMB())
	o.e2eAdd("setup_s", "s", stats.Median(setups))

	if !c.trace {
		return o, nil
	}
	last := passes[len(passes)-1]
	o.layerAdd("workloads.build_s", "s", stats.Median(builds))
	o.layerAdd("classify.run_s", "s", stats.Median(classifies))
	split, err := foldProfile(o, prof.Bytes())
	if err != nil {
		return nil, err
	}
	simLayers(o, totals(last.recs), split, len(passes))
	o.layerAdd("harness.sim_runs", "count", float64(last.stats.SimRuns))
	o.layerAdd("harness.forked_runs", "count", float64(last.stats.ForkedRuns))
	o.layerAdd("harness.fig1_profiled_runs", "count", float64(last.fig1Runs))
	if err := probeLayers(ctx, c, o, last.opts, last.recs, b.figures, true); err != nil {
		return nil, err
	}
	runtimeLayers(o, rt0, rt1)
	o.layerAdd("trace.overhead_frac", "ratio", stats.Median(walls)/refWall-1)
	return o, nil
}
