package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"hintm/internal/cache"
	"hintm/internal/classify"
	"hintm/internal/htm"
	"hintm/internal/ir"
	"hintm/internal/workloads"
)

// Lookahead equivalence: a machine that runs each picked context ahead to
// its next interaction point must produce exactly the results of one that
// steps one instruction per pick (Machine.strict). These tests compare the
// full Result bytes of both modes over the workload grid, and pin the two
// places where the settle rule does real work — a remote abort and a
// TLB-shootdown slave charge landing in the middle of a run — with crafted
// programs swept over timing offsets, so exact clock ties and charges
// between a run's start and its abort are both hit.

// runModes runs mod under cfg twice, with lookahead and strictly, and
// returns both results.
func runModes(t *testing.T, cfg Config, mod *ir.Module) (look, strict *Result) {
	t.Helper()
	run := func(strict bool) *Result {
		m, err := New(cfg, mod)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Release()
		m.strict = strict
		res, err := m.Run(context.Background())
		if err != nil {
			t.Fatalf("strict=%v: %v", strict, err)
		}
		return res
	}
	return run(false), run(true)
}

// sameResult fails the test unless both results marshal to the same bytes.
func sameResult(t *testing.T, what string, look, strict *Result) {
	t.Helper()
	a, err := json.Marshal(look)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(strict)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("%s: lookahead result differs from strict stepping\n  lookahead: cycles=%d steps=%d lost=%v\n  strict:    cycles=%d steps=%d lost=%v",
			what, look.Cycles, look.Steps, look.CyclesLost, strict.Cycles, strict.Steps, strict.CyclesLost)
	}
}

var (
	allHTMs  = []HTMKind{HTMP8, HTMP8S, HTML1TM, HTMInfCap, HTMSTM}
	allHints = []HintMode{HintNone, HintStatic, HintDynamic, HintFull}
)

// TestLookaheadMatchesStrictOnWorkloads covers every workload × HTM kind ×
// hint mode at small scale, plus 2-way SMT (siblings share an L1, so
// eviction and sibling snoops abort remote contexts) and lazy versioning.
func TestLookaheadMatchesStrictOnWorkloads(t *testing.T) {
	for _, spec := range workloads.AllWithExtras() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			build := func(threads int) *ir.Module {
				mod := spec.Build(threads, workloads.Small)
				if _, err := classify.Run(mod); err != nil {
					t.Fatal(err)
				}
				return mod
			}
			mod := build(spec.DefaultThreads)
			for _, kind := range allHTMs {
				for _, hints := range allHints {
					cfg := DefaultConfig()
					cfg.HTM, cfg.Hints = kind, hints
					look, strict := runModes(t, cfg, mod)
					sameResult(t, fmt.Sprintf("%s/%s", kind, hints), look, strict)
				}
			}
			for _, kind := range []HTMKind{HTMP8, HTMInfCap} {
				for _, hints := range []HintMode{HintNone, HintFull} {
					cfg := DefaultConfig()
					cfg.HTM, cfg.Hints = kind, hints
					cfg.Versioning = htm.VersionLazy
					look, strict := runModes(t, cfg, mod)
					sameResult(t, fmt.Sprintf("lazy/%s/%s", kind, hints), look, strict)
				}
			}
			smtMod := build(2 * spec.DefaultThreads)
			for _, kind := range []HTMKind{HTMP8, HTML1TM} {
				for _, hints := range []HintMode{HintNone, HintFull} {
					cfg := DefaultConfig()
					cfg.HTM, cfg.Hints, cfg.SMT = kind, hints, 2
					cfg.Cores = spec.DefaultThreads
					cfg.Cache = cache.DefaultConfig(cfg.Cores)
					look, strict := runModes(t, cfg, smtMod)
					sameResult(t, fmt.Sprintf("smt2/%s/%s", kind, hints), look, strict)
				}
			}
		})
	}
}

// delayLoop emits a register-only loop of n iterations followed by pad
// Const instructions: it moves the thread's clock by about 6n+pad cycles
// without an interaction point, so sweeping n and pad places the thread's
// next interaction at every clock offset relative to another thread's run.
func delayLoop(f *ir.FuncBuilder, name string, n, pad int64) {
	loop := f.NewBlock(name)
	done := f.NewBlock(name + "done")
	i := f.C(0)
	f.Br(loop)
	f.SetBlock(loop)
	f.MovTo(i, f.AddI(i, 1))
	f.CondBr(f.Cmp(ir.CmpLT, i, f.C(n)), loop, done)
	f.SetBlock(done)
	for k := int64(0); k < pad; k++ {
		f.C(k)
	}
}

// dispatch branches a two-or-more-way thread body on its tid parameter:
// thread k continues in bodies[k].
func dispatch(f *ir.FuncBuilder, bodies []*ir.Block) {
	for k := 0; k < len(bodies)-1; k++ {
		next := f.NewBlock(fmt.Sprintf("not%d", k))
		f.CondBr(f.Cmp(ir.CmpEQ, f.Param(0), f.C(int64(k))), bodies[k], next)
		f.SetBlock(next)
	}
	f.Br(bodies[len(bodies)-1])
}

// conflictMidRunModule: the victim thread reads x inside a transaction and
// then runs a long register-only loop; the other thread waits delay
// iterations (+pad cycles) and stores to x, so the conflict abort lands in
// the middle of the victim's run.
func conflictMidRunModule(victim int, delay, pad int64) *ir.Module {
	b := ir.NewBuilder("conflict-mid-run")
	b.GlobalPageAligned("x", 1)
	b.GlobalPageAligned("out", 16)

	w := b.ThreadBody("worker", 1)
	vb, ab := w.NewBlock("victim"), w.NewBlock("actor")
	bodies := []*ir.Block{ab, ab}
	bodies[victim] = vb
	dispatch(w, bodies)

	w.SetBlock(vb)
	w.TxBegin()
	v := w.Load(w.GlobalAddr("x"), 0)
	delayLoop(w, "spin", 600, 0)
	w.Store(w.Add(w.GlobalAddr("out"), w.MulI(w.Param(0), 8)), 0, v)
	w.TxEnd()
	w.RetVoid()

	w.SetBlock(ab)
	delayLoop(w, "wait", delay, pad)
	w.Store(w.GlobalAddr("x"), 0, w.C(1))
	w.RetVoid()

	mn := b.Function("main", 0)
	mn.Parallel(mn.C(2), "worker")
	mn.RetVoid()
	return b.M
}

func TestLookaheadRemoteAbortMidRun(t *testing.T) {
	var points, aborted int
	for victim := 0; victim < 2; victim++ {
		for delay := int64(20); delay < 700; delay += 37 {
			for pad := int64(0); pad < 6; pad++ {
				points++
				cfg := DefaultConfig()
				look, strict := runModes(t, cfg, conflictMidRunModule(victim, delay, pad))
				what := fmt.Sprintf("victim=%d delay=%d pad=%d", victim, delay, pad)
				sameResult(t, what, look, strict)
				if look.Aborts[htm.AbortConflict] > 0 {
					aborted++
				}
			}
		}
	}
	// The sweep must actually abort the victim mid-run in most cases, or it
	// pins nothing.
	if aborted < points*3/4 {
		t.Fatalf("only %d of %d sweep points aborted the victim", aborted, points)
	}
}

// shootdownThenAbortModule: thread 0 reads q outside any transaction (its
// TLB caches q's private-ro mapping), then reads x in a transaction and
// runs a long register-only loop. Thread 1 writes q after delay: the
// safe→unsafe transition shoots down thread 0's TLB entry, charging it the
// slave cost without aborting it (its transaction never touched q). Thread
// 2 writes x gap iterations later: that transition aborts thread 0, whose
// run has by then been shifted by the slave charge.
func shootdownThenAbortModule(delay, gap, pad int64) *ir.Module {
	b := ir.NewBuilder("shootdown-then-abort")
	b.GlobalPageAligned("q", 1)
	b.GlobalPageAligned("x", 1)
	b.GlobalPageAligned("out", 16)

	w := b.ThreadBody("worker", 1)
	vb, cb, ab := w.NewBlock("victim"), w.NewBlock("charger"), w.NewBlock("aborter")
	dispatch(w, []*ir.Block{vb, cb, ab})

	w.SetBlock(vb)
	w.Load(w.GlobalAddr("q"), 0)
	w.TxBegin()
	v := w.Load(w.GlobalAddr("x"), 0)
	delayLoop(w, "spin", 900, 0)
	w.Store(w.GlobalAddr("out"), 0, v)
	w.TxEnd()
	w.RetVoid()

	w.SetBlock(cb)
	delayLoop(w, "cwait", delay, 0)
	w.Store(w.GlobalAddr("q"), 0, w.C(1))
	w.RetVoid()

	w.SetBlock(ab)
	delayLoop(w, "await", delay+gap, pad)
	w.Store(w.GlobalAddr("x"), 0, w.C(2))
	w.RetVoid()

	mn := b.Function("main", 0)
	mn.Parallel(mn.C(3), "worker")
	mn.RetVoid()
	return b.M
}

func TestLookaheadShootdownChargeThenAbort(t *testing.T) {
	var points, charged int
	for delay := int64(60); delay < 400; delay += 53 {
		for gap := int64(0); gap < 300; gap += 23 {
			for pad := int64(0); pad < 3; pad++ {
				points++
				cfg := DefaultConfig()
				cfg.Hints = HintDynamic
				look, strict := runModes(t, cfg, shootdownThenAbortModule(delay, gap, pad))
				what := fmt.Sprintf("delay=%d gap=%d pad=%d", delay, gap, pad)
				sameResult(t, what, look, strict)
				if look.VM.Transitions >= 2 && look.TotalAborts() > 0 {
					charged++
				}
			}
		}
	}
	if charged < points*3/4 {
		t.Fatalf("only %d of %d sweep points charged and then aborted the victim", charged, points)
	}
}
