package main

import (
	"bytes"
	"compress/gzip"
	"math"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestSplitFunc(t *testing.T) {
	cases := []struct{ sym, pkg, name string }{
		{"hintm/internal/sim.(*Machine).stepWorkers", "hintm/internal/sim", "stepWorkers"},
		{"hintm/internal/sim.(*Machine).Run.func1", "hintm/internal/sim", "Run"},
		{"hintm/internal/flat.(*Tab[go.shape.struct { hintm/internal/vmem.mode uint8 }]).Get", "hintm/internal/flat", "Get"},
		{"hintm/internal/classify.Run", "hintm/internal/classify", "Run"},
		{"runtime.mallocgc", "runtime", "mallocgc"},
		{"net/http.(*conn).serve", "net/http", "serve"},
		{"main.main", "main", "main"},
	}
	for _, c := range cases {
		pkg, name := splitFunc(c.sym)
		if pkg != c.pkg || name != c.name {
			t.Errorf("splitFunc(%q) = %q, %q; want %q, %q", c.sym, pkg, name, c.pkg, c.name)
		}
	}
}

// TestFoldSynthetic folds a hand-built profile whose expected split is
// known exactly: mapped leaves, helpers charged to callers, the sim
// function split, runtime helpers, and an unknown repository package.
func TestFoldSynthetic(t *testing.T) {
	s := func(n int64, stack ...string) profSample { return profSample{Stack: stack, Nanos: n} }
	samples := []profSample{
		s(30, "hintm/internal/interp.(*Program).Step", "hintm/internal/sim.(*Machine).stepThread", "hintm/internal/sim.(*Machine).Run"),
		s(25, "hintm/internal/sim.(*Machine).stepWorkers", "hintm/internal/sim.(*Machine).Run"),
		s(7, "hintm/internal/sim.(*Machine).access", "hintm/internal/sim.(*Machine).Load", "hintm/internal/interp.(*Program).Step", "hintm/internal/sim.(*Machine).Run"),
		// flat is a helper: charged to its vmem caller.
		s(10, "hintm/internal/flat.(*Tab[go.shape.int]).Get", "hintm/internal/vmem.(*tlb).lookup", "hintm/internal/sim.(*Machine).access", "hintm/internal/sim.(*Machine).Run"),
		// runtime.memmove is a helper: charged to cache.
		s(5, "runtime.memmove", "hintm/internal/cache.(*Hierarchy).Access", "hintm/internal/sim.(*Machine).access"),
		// allocation is the runtime's own work.
		s(8, "runtime.mallocgc", "runtime.newobject", "hintm/internal/harness.(*Runner).Run"),
		// stdlib helpers under the store.
		s(4, "syscall.Syscall", "os.(*File).Write", "hintm/internal/store.(*Store).Put"),
		s(6, "encoding/json.Marshal", "hintm/internal/server.(*Server).respond"),
		s(3, "hintm/internal/obs.(*Metric).Add", "net/http.(*conn).serve"),
		s(1, "crypto/sha256.block", "main.digestLines", "main.main", "runtime.main"),
		// a repository package the table does not know: unattributed even
		// though a mapped caller sits above it.
		s(1, "hintm/internal/block.Step", "hintm/internal/sim.(*Machine).Run"),
	}
	ls := fold(samples)
	want := map[string]int64{
		"interp": 30, "sim.sched": 25, "sim.env": 7, "vmem": 10, "cache": 5,
		"runtime": 8, "store": 4, "server": 6, "net": 3, "bench": 1, unattributed: 1,
	}
	if ls.TotalNanos != 100 {
		t.Fatalf("total = %d, want 100", ls.TotalNanos)
	}
	for layer, n := range want {
		if ls.ByLayer[layer] != n {
			t.Errorf("%s = %d, want %d", layer, ls.ByLayer[layer], n)
		}
	}
	if ls.SimRunNanos != 30+25+7+10+1 {
		t.Errorf("sim run = %d, want 73", ls.SimRunNanos)
	}
	if err := ls.check(samples); err != nil {
		t.Errorf("1%% unattributed should pass the %.0f%% bound: %v", 100*maxUnattributed, err)
	}

	// Past the bound the fold fails and names the escaping frame.
	samples = append(samples, s(5, "hintm/internal/block.Step", "hintm/internal/sim.(*Machine).Run"))
	err := fold(samples).check(samples)
	if err == nil || !strings.Contains(err.Error(), "hintm/internal/block.Step") {
		t.Fatalf("6%% unattributed: err = %v, want a failure naming hintm/internal/block.Step", err)
	}
}

// TestParseRealProfile round-trips a CPU profile written by runtime/pprof
// through the decoder.
func TestParseRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	x := 0.0
	for time.Now().Before(deadline) {
		x += spin(1 << 16)
	}
	pprof.StopCPUProfile()
	if x == 0 {
		t.Fatal("spin optimized away")
	}
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	ls := fold(samples)
	if ls.TotalNanos == 0 {
		t.Skip("profile caught no samples")
	}
	// The spin loop lives in this package (main): the bench layer.
	found := false
	for _, s := range samples {
		for _, sym := range s.Stack {
			if sym == "hintm/perfbench.spin" || sym == "main.spin" {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("no sample mentions spin; first stack: %v", samples[0].Stack)
	}
}

func spin(n int) float64 {
	x := 0.0
	for i := 0; i < n; i++ {
		x += math.Sqrt(float64(i))
	}
	return x
}

func TestParseProfileErrors(t *testing.T) {
	if _, err := parseProfile([]byte{0x0a, 0xff}); err == nil {
		t.Error("truncated profile parsed without error")
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write([]byte{0x08, 0x01}) // field 1 as a varint: no sample types
	zw.Close()
	if _, err := parseProfile(gz.Bytes()); err == nil {
		t.Error("profile without a nanoseconds column parsed without error")
	}
}
