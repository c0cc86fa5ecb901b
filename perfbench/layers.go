package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// The layer split folds a runtime/pprof CPU profile of the traced pass into
// a fixed package → layer table. Each sample is charged to the leaf-most
// frame whose package is mapped; frames in helper packages (the standard
// library and the repository's utility packages) pass the sample on to
// their caller. A frame in a repository package the table does not know
// makes the sample unattributed, so a new or renamed package shows up as a
// growing unattributed share instead of silently landing elsewhere.

// maxUnattributed bounds the unattributed share before the fold fails.
const maxUnattributed = 0.02

// unattributed is the pseudo-layer for samples the table cannot place.
const unattributed = "unattributed"

const repoPrefix = "hintm/"

// layerOfPkg maps a package path to its layer.
var layerOfPkg = map[string]string{
	"hintm/internal/interp":    "interp",
	"hintm/internal/sim":       "sim.sched",
	"hintm/internal/cache":     "cache",
	"hintm/internal/vmem":      "vmem",
	"hintm/internal/htm":       "htm",
	"hintm/internal/mem":       "mem",
	"hintm/internal/profile":   "profile",
	"hintm/internal/harness":   "harness",
	"hintm/internal/store":     "store",
	"hintm/internal/server":    "server",
	"hintm/internal/api":       "server",
	"hintm/internal/workloads": "workloads",
	"hintm/internal/classify":  "classify",
	"hintm/internal/alias":     "classify",
	"hintm/internal/escape":    "classify",
	"hintm/internal/cfg":       "classify",
	"hintm/internal/opt":       "classify",
	"net":                      "net",
	"net/http":                 "net",
	"runtime":                  "runtime",
	"runtime/pprof":            "trace",
	"main":                     "bench",
	"hintm/perfbench":          "bench", // the benchmark's own code under go test
}

// simEnvFuncs are the sim functions charged to sim.env: the environment
// the interpreter calls into for memory and transactions. Every other sim
// function (the Run loop, stepWorkers, stepThread, syncEff, ...) is
// sim.sched.
var simEnvFuncs = map[string]bool{
	"Load": true, "Store": true, "access": true, "pageModeTransition": true,
	"deliverHeldInvals": true, "Malloc": true, "Free": true, "StackAlloc": true,
	"StackRelease": true, "TxBegin": true, "TxSuspend": true, "TxResume": true,
	"TxEnd": true, "Parallel": true, "AbortHint": true, "abortTx": true,
	"notifyTx": true,
}

// repoHelpers are repository packages that do work on behalf of a caller;
// their samples go to the nearest mapped caller.
var repoHelpers = map[string]bool{
	"hintm/internal/flat": true, "hintm/internal/stats": true,
	"hintm/internal/obs": true, "hintm/internal/fault": true,
	"hintm/internal/snap": true, "hintm/internal/ir": true,
	"hintm/internal/fleet": true, "hintm/internal/trace": true,
	"hintm/internal/svgplot": true, "hintm/internal/cli": true,
}

// runtimeHelpers are runtime functions that do a caller's work (copies,
// map operations, hashing) rather than the runtime's own (allocation, GC,
// scheduling); they pass the sample to the caller like helper packages.
var runtimeHelpers = []string{
	"memmove", "memclr", "memequal", "map", "aeshash", "memhash", "strhash",
	"typedmemmove", "typedmemclr", "typedslicecopy", "cmpstring",
	"concatstring", "slicebytetostring", "stringtoslicebyte", "duff",
	"nilinterhash", "interhash", "efaceeq", "ifaceeq", "growslice",
}

// layerNames lists every layer the fold reports, in report order.
var layerNames = []string{
	"interp", "sim.sched", "sim.env", "cache", "vmem", "htm", "mem", "profile",
	"harness", "store", "server", "net", "workloads", "classify", "runtime",
	"trace", "bench",
}

// frameKind classifies one stack frame for the fold.
type frameKind int

const (
	frameMapped frameKind = iota
	frameHelper
	frameUnknown
)

// splitFunc splits a symbol such as
// "hintm/internal/sim.(*Machine).stepWorkers.func1" into its package path
// and the bare function or method name ("stepWorkers").
func splitFunc(sym string) (pkg, name string) {
	head := sym
	if i := strings.IndexAny(head, "(["); i >= 0 {
		head = head[:i]
	}
	slash := strings.LastIndex(head, "/")
	dot := strings.Index(head[slash+1:], ".")
	if dot < 0 {
		return sym, ""
	}
	pkg = sym[:slash+1+dot]
	rest := sym[len(pkg)+1:]
	if strings.HasPrefix(rest, "(") {
		if i := strings.Index(rest, ")."); i >= 0 {
			rest = rest[i+2:]
		}
	}
	if i := strings.IndexAny(rest, ".["); i >= 0 {
		rest = rest[:i]
	}
	return pkg, rest
}

// classifyFrame places one frame.
func classifyFrame(sym string) (string, frameKind) {
	pkg, name := splitFunc(sym)
	if pkg == "runtime" {
		for _, h := range runtimeHelpers {
			if strings.HasPrefix(name, h) {
				return "", frameHelper
			}
		}
	}
	if layer, ok := layerOfPkg[pkg]; ok {
		if pkg == "hintm/internal/sim" && simEnvFuncs[name] {
			return "sim.env", frameMapped
		}
		return layer, frameMapped
	}
	if strings.HasPrefix(pkg, repoPrefix) && !repoHelpers[pkg] {
		return "", frameUnknown
	}
	return "", frameHelper
}

// layerOf charges one stack (leaf first) to a layer.
func layerOf(stack []string) string {
	for _, sym := range stack {
		layer, kind := classifyFrame(sym)
		switch kind {
		case frameMapped:
			return layer
		case frameUnknown:
			return unattributed
		}
	}
	return unattributed
}

// profSample is one CPU profile sample: its stack, leaf first with inlined
// frames expanded, and its CPU time in nanoseconds.
type profSample struct {
	Stack []string
	Nanos int64
}

// layerSplit is the folded profile.
type layerSplit struct {
	TotalNanos int64
	ByLayer    map[string]int64
	// SimRunNanos is the CPU time with sim.(*Machine).Run or RunToPrefix on
	// the stack: host time spent inside simulations.
	SimRunNanos int64
}

// fold charges every sample to a layer.
func fold(samples []profSample) layerSplit {
	ls := layerSplit{ByLayer: make(map[string]int64)}
	for _, s := range samples {
		ls.TotalNanos += s.Nanos
		ls.ByLayer[layerOf(s.Stack)] += s.Nanos
		for _, sym := range s.Stack {
			if sym == "hintm/internal/sim.(*Machine).Run" || sym == "hintm/internal/sim.(*Machine).RunToPrefix" {
				ls.SimRunNanos += s.Nanos
				break
			}
		}
	}
	return ls
}

// share is layer's fraction of the profile's CPU time.
func (ls layerSplit) share(layer string) float64 {
	if ls.TotalNanos == 0 {
		return 0
	}
	return float64(ls.ByLayer[layer]) / float64(ls.TotalNanos)
}

// check fails when the fold could not place enough of the profile's
// samples, naming the frames that escaped the table.
func (ls layerSplit) check(samples []profSample) error {
	if ls.TotalNanos == 0 {
		return errors.New("layer fold: empty CPU profile")
	}
	if u := ls.share(unattributed); u > maxUnattributed {
		return fmt.Errorf("layer fold: %.1f%% of CPU unattributed (bound %.0f%%); add these to the layer table: %s",
			100*u, 100*maxUnattributed, strings.Join(unattributedTop(samples, 5), ", "))
	}
	return nil
}

// unattributedTop returns the leaf-most repository symbols of unattributed
// samples, heaviest first, for diagnosing a stale layer table.
func unattributedTop(samples []profSample, n int) []string {
	w := make(map[string]int64)
	for _, s := range samples {
		if layerOf(s.Stack) != unattributed {
			continue
		}
		key := "(helpers only)"
		for _, sym := range s.Stack {
			if _, kind := classifyFrame(sym); kind == frameUnknown {
				key = sym
				break
			}
		}
		w[key] += s.Nanos
	}
	keys := make([]string, 0, len(w))
	for k := range w {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return w[keys[i]] > w[keys[j]] })
	if len(keys) > n {
		keys = keys[:n]
	}
	return keys
}

// ---- pprof decoding ----------------------------------------------------

// The profile.proto subset a CPU profile needs, decoded by hand so the
// benchmark depends on the standard library only. Field numbers follow
// github.com/google/pprof/proto/profile.proto.

type pbReader struct {
	b   []byte
	err error
}

func (p *pbReader) varint() uint64 {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			p.err = io.ErrUnexpectedEOF
			return 0
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
	p.err = errors.New("pprof: varint overflow")
	return 0
}

// field reads one field header and returns its number, wire type, and for
// length-delimited fields the payload.
func (p *pbReader) field() (num int, wire int, val uint64, payload []byte) {
	key := p.varint()
	num, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		val = p.varint()
	case 1:
		if len(p.b) < 8 {
			p.err = io.ErrUnexpectedEOF
			return
		}
		p.b = p.b[8:]
	case 2:
		n := p.varint()
		if uint64(len(p.b)) < n {
			p.err = io.ErrUnexpectedEOF
			return
		}
		payload, p.b = p.b[:n], p.b[n:]
	case 5:
		if len(p.b) < 4 {
			p.err = io.ErrUnexpectedEOF
			return
		}
		p.b = p.b[4:]
	default:
		p.err = fmt.Errorf("pprof: unsupported wire type %d", wire)
	}
	return
}

// uints appends a repeated integer field's values, packed or not.
func uints(dst []uint64, wire int, val uint64, payload []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, val), nil
	}
	q := pbReader{b: payload}
	for len(q.b) > 0 && q.err == nil {
		dst = append(dst, q.varint())
	}
	return dst, q.err
}

// parseProfile decodes a (possibly gzipped) CPU profile into samples
// weighted by CPU nanoseconds.
func parseProfile(data []byte) ([]profSample, error) {
	if len(data) > 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("pprof: gunzip: %w", err)
		}
	}
	type sampleRaw struct{ locs, vals []uint64 }
	var (
		strs        []string
		sampleTypes [][2]uint64 // (type, unit) string indexes
		samples     []sampleRaw
		locFuncs    = make(map[uint64][]uint64) // location id → function ids, leaf first
		funcName    = make(map[uint64]uint64)   // function id → name string index
	)
	p := pbReader{b: data}
	for len(p.b) > 0 && p.err == nil {
		num, _, _, payload := p.field()
		if p.err != nil {
			break
		}
		q := pbReader{b: payload}
		switch num {
		case 1: // sample_type
			var vt [2]uint64
			for len(q.b) > 0 && q.err == nil {
				n, _, v, _ := q.field()
				if n == 1 || n == 2 {
					vt[n-1] = v
				}
			}
			sampleTypes = append(sampleTypes, vt)
		case 2: // sample
			var s sampleRaw
			for len(q.b) > 0 && q.err == nil {
				n, w, v, pl := q.field()
				var err error
				switch n {
				case 1:
					s.locs, err = uints(s.locs, w, v, pl)
				case 2:
					s.vals, err = uints(s.vals, w, v, pl)
				}
				if err != nil {
					return nil, err
				}
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			for len(q.b) > 0 && q.err == nil {
				n, _, v, pl := q.field()
				switch n {
				case 1:
					id = v
				case 4: // line
					l := pbReader{b: pl}
					for len(l.b) > 0 && l.err == nil {
						ln, _, lv, _ := l.field()
						if ln == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5: // function
			var id, name uint64
			for len(q.b) > 0 && q.err == nil {
				n, _, v, _ := q.field()
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(payload))
		}
		if q.err != nil {
			return nil, q.err
		}
	}
	if p.err != nil {
		return nil, p.err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	// CPU profiles carry (samples/count, cpu/nanoseconds); weight by the
	// nanoseconds column.
	col := -1
	for i, vt := range sampleTypes {
		if str(vt[1]) == "nanoseconds" {
			col = i
		}
	}
	if col < 0 {
		return nil, errors.New("pprof: no nanoseconds sample type (not a CPU profile?)")
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if col >= len(s.vals) {
			continue
		}
		ps := profSample{Nanos: int64(s.vals[col])}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				ps.Stack = append(ps.Stack, str(funcName[fn]))
			}
		}
		out = append(out, ps)
	}
	return out, nil
}
