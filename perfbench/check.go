package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"hintm/internal/harness"
	"hintm/internal/sim"
	"hintm/internal/store"
	"hintm/internal/workloads"
)

// The output check pins every distinct simulation a workload produces, the
// way the repository's seed-grid golden test does: one line per result,
//
//	<store key> <SHA-256 of the result's JSON encoding>
//
// sorted, and a digest over the lines. digests/<workload>.txt holds the
// digest per recorded seed; digests/<workload>-seed<N>.txt holds the full
// line list for the development seed (1) and the held-out seed (2), so a
// mismatch there is localized to the requests that drifted.

// heldSeeds are the seeds whose full line lists are committed.
var heldSeeds = map[uint64]bool{1: true, 2: true}

// resultRec is one distinct simulation result.
type resultRec struct {
	req harness.Request
	// pre is the request's canonical store-key preimage; key its address.
	pre []byte
	key string
	// raw is the result's JSON encoding, as the store persists it.
	raw []byte
	res *sim.Result
}

// line renders the record's digest line.
func (r resultRec) line() string {
	sum := sha256.Sum256(r.raw)
	return r.key + " " + hex.EncodeToString(sum[:])
}

// recsFromStore reads every entry of st as a result record.
func recsFromStore(st *store.Store) ([]resultRec, error) {
	var out []resultRec
	for _, ie := range st.List() {
		e, _, err := st.Get(ie.Key)
		if err != nil {
			return nil, err
		}
		if e == nil {
			// Quarantined on read: the object no longer validates. Keep the
			// key with empty bytes so the check counts it as a mismatch.
			out = append(out, resultRec{key: ie.Key, res: &sim.Result{}})
			continue
		}
		rec, err := newRec(e.Request, e.Key, e.Result)
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
	return out, nil
}

// newRec decodes a stored (preimage, result) pair.
func newRec(pre []byte, key string, raw []byte) (resultRec, error) {
	req, err := requestOf(pre)
	if err != nil {
		return resultRec{}, err
	}
	var res sim.Result
	if err := json.Unmarshal(raw, &res); err != nil {
		return resultRec{}, fmt.Errorf("result %s: %w", key, err)
	}
	return resultRec{req: req, pre: pre, key: key, raw: raw, res: &res}, nil
}

// recsFromRunner collects reqs' results from r's memo (each request must
// already have run) in the encoding the store would persist.
func recsFromRunner(ctx context.Context, r *harness.Runner, reqs []harness.Request) ([]resultRec, error) {
	out := make([]resultRec, 0, len(reqs))
	for _, q := range reqs {
		res, err := r.Run(ctx, q)
		if err != nil {
			return nil, err
		}
		raw, err := json.Marshal(res)
		if err != nil {
			return nil, err
		}
		out = append(out, resultRec{req: q, pre: r.KeyPreimage(q), key: r.StoreKey(q), raw: raw, res: res})
	}
	return out, nil
}

// requestOf parses a canonical key preimage back into its request.
func requestOf(pre []byte) (harness.Request, error) {
	var k struct {
		Workload, Scale, HTM, Hints string
		SMT                         int
		SigBits                     uint64
	}
	if err := json.Unmarshal(pre, &k); err != nil {
		return harness.Request{}, fmt.Errorf("preimage: %w", err)
	}
	q := harness.Request{Workload: k.Workload, SMT: k.SMT, SigBits: k.SigBits}
	var err error
	if q.Scale, err = workloads.ParseScale(k.Scale); err != nil {
		return q, err
	}
	if q.HTM, err = htmOf(k.HTM); err != nil {
		return q, err
	}
	q.Hints, err = hintsOf(k.Hints)
	return q, err
}

// htmOf inverts sim.HTMKind.String; hintsOf inverts sim.HintMode.String.
func htmOf(s string) (sim.HTMKind, error) {
	for k := sim.HTMP8; k <= sim.HTMSTM; k++ {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown HTM %q", s)
}

func hintsOf(s string) (sim.HintMode, error) {
	for h := sim.HintNone; h <= sim.HintFull; h++ {
		if h.String() == s {
			return h, nil
		}
	}
	return 0, fmt.Errorf("unknown hint mode %q", s)
}

// digestLines returns the sorted digest lines of recs and their digest.
func digestLines(recs []resultRec) ([]string, string) {
	lines := make([]string, len(recs))
	for i, r := range recs {
		lines[i] = r.line()
	}
	sort.Strings(lines)
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n") + "\n"))
	return lines, hex.EncodeToString(sum[:])
}

// reference is the committed expectation for one (workload, seed).
type reference struct {
	known  bool
	n      int
	digest string
	// lines maps key → result hash when the full list is committed.
	lines map[string]string
}

// loadReference reads the committed digests for (workload, seed).
func loadReference(c config) (reference, error) {
	var ref reference
	data, err := os.ReadFile(refPath(c, c.workload+".txt"))
	if errors.Is(err, os.ErrNotExist) {
		return ref, nil
	}
	if err != nil {
		return ref, err
	}
	for _, l := range strings.Split(string(data), "\n") {
		f := strings.Fields(l)
		if len(f) != 3 || f[0] != strconv.FormatUint(c.seed, 10) {
			continue
		}
		ref.known = true
		ref.n, _ = strconv.Atoi(f[1])
		ref.digest = f[2]
	}
	data, err = os.ReadFile(refPath(c, fmt.Sprintf("%s-seed%d.txt", c.workload, c.seed)))
	if errors.Is(err, os.ErrNotExist) {
		return ref, nil
	}
	if err != nil {
		return ref, err
	}
	ref.lines = make(map[string]string)
	for _, l := range strings.Split(string(data), "\n") {
		if key, sum, ok := strings.Cut(strings.TrimSpace(l), " "); ok {
			ref.lines[key] = sum
		}
	}
	return ref, nil
}

// check compares one pass's results with the reference. Every result is
// one attempt; a result counts as failed when its line is missing from or
// differs from the committed list. Without a committed list for the seed, a
// digest mismatch fails every result of the pass: the drift cannot be
// localized, so none of them is trusted.
func (ref reference) check(recs []resultRec) (attempted, failed int64, note string) {
	lines, digest := digestLines(recs)
	attempted = int64(max(len(lines), ref.n))
	switch {
	case ref.lines != nil:
		seen := make(map[string]bool, len(lines))
		for _, l := range lines {
			key, sum, _ := strings.Cut(l, " ")
			seen[key] = true
			if ref.lines[key] != sum {
				failed++
			}
		}
		for key := range ref.lines {
			if !seen[key] {
				failed++
			}
		}
		attempted = int64(max(len(lines), len(ref.lines)))
		note = fmt.Sprintf("%d results checked line by line against the committed list (digest %s)", len(lines), digest[:16])
	case ref.known:
		if digest != ref.digest || len(lines) != ref.n {
			failed = attempted
		}
		note = fmt.Sprintf("%d results checked against the committed digest %s", len(lines), ref.digest[:16])
	default:
		note = fmt.Sprintf("no committed digest for this seed: %d results unchecked (digest %s)", len(lines), digest[:16])
	}
	if failed > 0 {
		note = fmt.Sprintf("MISMATCH: %d of %d results differ from the reference; ", failed, attempted) + note
	}
	return attempted, failed, note
}

// record writes recs as the reference for (workload, seed): the digest line
// always, the full list for the held seeds.
func record(c config, recs []resultRec) error {
	lines, digest := digestLines(recs)
	path := refPath(c, c.workload+".txt")
	keep := map[uint64]string{}
	if data, err := os.ReadFile(path); err == nil {
		for _, l := range strings.Split(string(data), "\n") {
			f := strings.Fields(l)
			if len(f) == 3 {
				if s, err := strconv.ParseUint(f[0], 10, 64); err == nil {
					keep[s] = l
				}
			}
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	keep[c.seed] = fmt.Sprintf("%d %d %s", c.seed, len(lines), digest)
	seeds := make([]uint64, 0, len(keep))
	for s := range keep {
		seeds = append(seeds, s)
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	var b bytes.Buffer
	fmt.Fprintf(&b, "# %s result digests: <seed> <results> <sha256 of the sorted \"key sha256(result)\" lines>\n", c.workload)
	for _, s := range seeds {
		fmt.Fprintln(&b, keep[s])
	}
	if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
		return err
	}
	if !heldSeeds[c.seed] {
		return nil
	}
	list := refPath(c, fmt.Sprintf("%s-seed%d.txt", c.workload, c.seed))
	return os.WriteFile(list, []byte(strings.Join(lines, "\n")+"\n"), 0o644)
}

// corruptResult flips one digit inside the "result" member of a store
// object (or of bare result JSON): the object still validates — its key is
// the hash of its request, not of its result — so only the output check
// can notice.
func corruptResult(data []byte) bool {
	start := bytes.Index(data, []byte(`"result":`))
	if start < 0 {
		start = 0
	}
	for i := start; i < len(data); i++ {
		if c := data[i]; c >= '1' && c <= '8' {
			data[i]++
			return true
		}
	}
	return false
}

// corruptStoreObject applies corruptResult to key's object file.
func corruptStoreObject(dir, key string) error {
	path := fmt.Sprintf("%s/objects/%s/%s.json", dir, key[:2], key)
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if !corruptResult(data) {
		return fmt.Errorf("corrupt: no digit to flip in %s", path)
	}
	return os.WriteFile(path, data, 0o644)
}
