package main

import (
	"context"
	"net/http"
	"testing"

	"hintm/internal/harness"
	"hintm/internal/store"
	"hintm/internal/workloads"
)

// smallStore runs a small slice of the figure grid into a fresh store.
func smallStore(t *testing.T) (string, *store.Store) {
	t.Helper()
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := harness.NewRunner(harness.Options{
		Scale: workloads.Small, LargeScale: workloads.Small, Seed: 1, Workers: workers,
		Filter: []string{"labyrinth"}, Store: st,
	})
	if _, err := r.Fig4(context.Background()); err != nil {
		t.Fatal(err)
	}
	return dir, st
}

// TestCheckCatchesCorruptResult is the output check's mutation control:
// one flipped byte in one stored result must fail exactly that result
// against a committed line list, and the whole pass against a committed
// digest alone.
func TestCheckCatchesCorruptResult(t *testing.T) {
	dir, st := smallStore(t)
	recs, err := recsFromStore(st)
	if err != nil {
		t.Fatal(err)
	}
	refs := t.TempDir()
	for _, seed := range []uint64{1, 3} { // 1 keeps its full list, 3 only a digest
		c := config{workload: "unit", seed: seed, refs: refs}
		if err := record(c, recs); err != nil {
			t.Fatal(err)
		}
		ref, err := loadReference(c)
		if err != nil {
			t.Fatal(err)
		}
		if att, failed, note := ref.check(recs); att != int64(len(recs)) || failed != 0 {
			t.Fatalf("seed %d clean: %d of %d failed (%s)", seed, failed, att, note)
		}
	}

	if err := corruptStoreObject(dir, recs[0].key); err != nil {
		t.Fatal(err)
	}
	bad, err := recsFromStore(st)
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := loadReference(config{workload: "unit", seed: 1, refs: refs})
	if _, failed, note := ref.check(bad); failed != 1 {
		t.Errorf("line list: corrupt result gave %d failures, want 1 (%s)", failed, note)
	}
	ref, _ = loadReference(config{workload: "unit", seed: 3, refs: refs})
	if att, failed, note := ref.check(bad); failed != att || failed == 0 {
		t.Errorf("digest only: corrupt result gave %d of %d failures, want all (%s)", failed, att, note)
	}
	// A seed with no reference checks nothing but still counts attempts.
	ref, _ = loadReference(config{workload: "unit", seed: 9, refs: refs})
	if att, failed, _ := ref.check(bad); failed != 0 || att != int64(len(bad)) {
		t.Errorf("unreferenced seed: %d of %d failed, want 0 of %d", failed, att, len(bad))
	}

	// The storeless path corrupts the encoded bytes in memory.
	raw := append([]byte(nil), recs[1].raw...)
	if !corruptResult(raw) || string(raw) == string(recs[1].raw) {
		t.Fatal("corruptResult changed nothing")
	}
}

// TestServeCheckCatchesCorruptObject corrupts a stored object under a
// running server: every GET of that key must count as failed, every other
// request must pass.
func TestServeCheckCatchesCorruptObject(t *testing.T) {
	if testing.Short() {
		t.Skip("fills the small figure grid")
	}
	ctx := context.Background()
	env, err := serveSetup(ctx, config{seed: 1, workdir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer env.close()
	bad, good := env.recs[0].key, env.recs[1].key
	plan := []plannedReq{{kind: getRun, key: bad}, {kind: getRun, key: good}, {kind: postRun, key: bad}, {kind: getFigure, fig: "fig4"}, {kind: getRun, key: bad}}
	clients := []*http.Client{newClient(), newClient()}
	if b := env.runBlock(ctx, clients, plan); b.failed != 0 {
		t.Fatalf("clean store: %d failed requests", b.failed)
	}
	if err := corruptStoreObject(env.dir, bad); err != nil {
		t.Fatal(err)
	}
	if b := env.runBlock(ctx, clients, plan); b.failed != 2 || len(b.lat) != len(plan) {
		t.Fatalf("corrupt object: %d of %d requests failed, want the 2 GETs of it", b.failed, len(b.lat))
	}
}
