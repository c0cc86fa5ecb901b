package harness

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"hintm/internal/sim"
	"hintm/internal/workloads"
)

// fig4Grid is a small but non-trivial request grid: every (HTM, hint)
// point Fig. 4 needs for one workload.
func fig4Grid() []Request {
	var reqs []Request
	for _, kind := range []sim.HTMKind{sim.HTMP8, sim.HTMInfCap} {
		for _, hints := range []sim.HintMode{sim.HintNone, sim.HintStatic, sim.HintDynamic, sim.HintFull} {
			reqs = append(reqs, Request{
				Workload: "labyrinth", Scale: workloads.Small, HTM: kind, Hints: hints,
			})
		}
	}
	return reqs
}

// TestParallelMatchesSerial is the scheduler's central guarantee: a Runner
// with 8 workers must produce byte-identical figure output and deeply equal
// raw results to a Runner with 1 worker.
func TestParallelMatchesSerial(t *testing.T) {
	ctx := context.Background()
	reqs := fig4Grid()

	runWith := func(workers int) ([]*sim.Result, string) {
		opts := QuickOptions()
		opts.Filter = []string{"labyrinth"}
		opts.Workers = workers
		r := NewRunner(opts)
		res, err := r.RunAll(ctx, reqs)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var sb strings.Builder
		if err := r.RenderFig4(ctx, &sb); err != nil {
			t.Fatalf("workers=%d render: %v", workers, err)
		}
		return res, sb.String()
	}

	serialRes, serialOut := runWith(1)
	parallelRes, parallelOut := runWith(8)

	if serialOut != parallelOut {
		t.Errorf("rendered Fig 4 differs between 1 and 8 workers:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serialOut, parallelOut)
	}
	if len(serialRes) != len(parallelRes) {
		t.Fatalf("result counts differ: %d vs %d", len(serialRes), len(parallelRes))
	}
	for i := range serialRes {
		if !reflect.DeepEqual(serialRes[i], parallelRes[i]) {
			t.Errorf("request %v: results differ between 1 and 8 workers", reqs[i])
		}
	}
}

// TestConcurrentRunnersShareFlights hammers one Runner from many goroutines
// (run under -race by the Makefile's race target): every caller asking for
// the same Request must get the same cached *sim.Result pointer back.
func TestConcurrentRunnersShareFlights(t *testing.T) {
	opts := QuickOptions()
	opts.Workers = 4
	r := NewRunner(opts)
	reqs := fig4Grid()

	const callers = 4
	got := make([][]*sim.Result, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			res, err := r.RunAll(context.Background(), reqs)
			if err != nil {
				t.Error(err)
				return
			}
			got[c] = res
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for c := 1; c < callers; c++ {
		for i := range reqs {
			if got[c][i] != got[0][i] {
				t.Fatalf("caller %d request %v: distinct *Result — single-flight broken", c, reqs[i])
			}
		}
	}
}

// TestRunAllAlignsDuplicates: duplicate entries in one grid must resolve to
// the one shared result, index-aligned with the input.
func TestRunAllAlignsDuplicates(t *testing.T) {
	r := NewRunner(QuickOptions())
	req := Request{Workload: "kmeans", Scale: workloads.Small}
	res, err := r.RunAll(context.Background(), []Request{req, req, req})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 || res[0] == nil || res[0] != res[1] || res[1] != res[2] {
		t.Fatalf("duplicates not deduplicated: %v", res)
	}
}

// TestRunCancellation: a cancelled context must abort promptly with the
// context's error, and must not poison the cache — a later call with a live
// context re-runs and succeeds.
func TestRunCancellation(t *testing.T) {
	r := NewRunner(QuickOptions())
	req := Request{Workload: "labyrinth", Scale: workloads.Small}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.Run(ctx, req); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	res, err := r.Run(context.Background(), req)
	if err != nil {
		t.Fatalf("retry after cancellation failed: %v", err)
	}
	if res == nil || res.Cycles == 0 {
		t.Fatalf("retry produced empty result: %+v", res)
	}
}

// TestRunAllCancellation: cancelling mid-grid surfaces the context error
// from RunAll and from figure entry points built on it.
func TestRunAllCancellation(t *testing.T) {
	opts := QuickOptions()
	opts.Filter = []string{"labyrinth"}
	r := NewRunner(opts)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.RunAll(ctx, fig4Grid()); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunAll err = %v, want context.Canceled", err)
	}
	if _, err := r.Fig4(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Fig4 err = %v, want context.Canceled", err)
	}
}

// TestRunUnknownWorkload: bad requests fail without touching the pool.
func TestRunUnknownWorkload(t *testing.T) {
	r := NewRunner(QuickOptions())
	if _, err := r.Run(context.Background(), Request{Workload: "ghost"}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// TestRequestNormalization: SMT 0 and SMT 1 are one cache key, and String
// is stable for log/error messages.
func TestRequestNormalization(t *testing.T) {
	a := Request{Workload: "x", Scale: workloads.Small}.normalize()
	b := Request{Workload: "x", Scale: workloads.Small, SMT: 1}.normalize()
	if a != b {
		t.Fatalf("normalize: %+v != %+v", a, b)
	}
	if s := a.String(); !strings.Contains(s, "x/") || !strings.Contains(s, "smt1") {
		t.Fatalf("String = %q", s)
	}
}

// TestRunProfiledRespectsContext: the profiled path honours cancellation
// like every other run.
func TestRunProfiledRespectsContext(t *testing.T) {
	r := NewRunner(QuickOptions())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := Request{Workload: "kmeans", Scale: workloads.Small}
	if _, _, err := r.RunProfiled(ctx, req); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, rep, err := r.RunProfiled(context.Background(), req); err != nil || rep.Pages == 0 {
		t.Fatalf("live profiled run: err=%v report=%+v", err, rep)
	}
}

// TestFig1MemoizesProfiledRuns: profiled runs are single-flighted like
// every other run, so a second Fig1 on the same Runner recalls the grid and
// the profiler reports alike and simulates nothing.
func TestFig1MemoizesProfiledRuns(t *testing.T) {
	opts := QuickOptions()
	opts.Filter = []string{"kmeans", "labyrinth"}
	r := NewRunner(opts)
	first, err := r.Fig1(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	runs := r.Stats().SimRuns
	second, err := r.Fig1(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Stats().SimRuns; got != runs {
		t.Fatalf("second Fig1 simulated %d runs, want 0", got-runs)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("recalled Fig1 differs:\n%+v\n%+v", first, second)
	}
}
