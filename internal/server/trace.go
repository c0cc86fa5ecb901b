// GET /v1/traces/{key}: the assembled fleet trace of a request.
//
// Every resolve roots a trace under the key's deterministic trace id
// (obs.TraceID — the first 16 hex characters of the content address), and
// every cross-node hop carries the X-Hintm-Trace context, so each node
// involved in a request holds its own shard of the spans. This endpoint
// assembles them: the queried node serves its latest local root execution
// for the key and asks every healthy peer for its spans of that same root
// (?local=1&root=..., the same anti-cascade discipline as the data path).
//
// ?canon=1 zeroes the wall-clock fields and sorts — the canonical form two
// identical seeded fleet runs must reproduce byte-identically, which the
// determinism test and fleet-smoke assert.
package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/url"

	"hintm/internal/api"
	"hintm/internal/obs"
)

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	s.metrics.Counter(obs.MetricServeRequests).Inc()
	if s.traces == nil {
		s.writeError(w, http.StatusNotFound,
			api.Errorf(api.CodeNotFound, "tracing is disabled on this node"))
		return
	}
	key := r.PathValue("key")
	trace := obs.TraceID(key)
	q := r.URL.Query()
	root := q.Get("root")
	if root == "" {
		var ok bool
		if root, ok = s.traces.LatestRoot(trace); !ok {
			s.writeError(w, http.StatusNotFound,
				api.Errorf(api.CodeNotFound, "no trace rooted here for key %s (ask the node that resolved it)", key))
			return
		}
	}
	spans, ok := s.traces.Spans(trace, root)

	if q.Get("local") != "" {
		// The peer-internal shard: only this node's spans for exactly the
		// requested root. An empty shard is a normal answer — the assembling
		// node just learns we saw nothing.
		if spans == nil {
			spans = []obs.Span{}
		}
		s.respond(w, http.StatusOK, obs.TraceDoc{
			Schema: obs.TraceSchema, Trace: trace, Root: root, Node: s.nodeLabel, Spans: spans,
		})
		return
	}
	if !ok {
		s.writeError(w, http.StatusNotFound,
			api.Errorf(api.CodeNotFound, "no spans for key %s root %s", key, root))
		return
	}
	doc := &obs.TraceDoc{Schema: obs.TraceSchema, Key: key, Trace: trace, Root: root, Node: s.nodeLabel, Spans: spans}
	if s.ring != nil {
		for _, node := range s.ring.Nodes() {
			if node == s.self || !s.health.Ready(node) {
				continue
			}
			doc.Spans = append(doc.Spans, s.traceFrom(r.Context(), node, key, root)...)
		}
	}
	doc.Sort()
	if q.Get("canon") != "" {
		doc = doc.Canonical()
	}
	s.respond(w, http.StatusOK, doc)
}

// traceFrom fetches one peer's span shard for a root execution. Best
// effort: an unreachable or trace-disabled peer contributes nothing rather
// than failing the assembly.
func (s *Server) traceFrom(ctx context.Context, node, key, root string) []obs.Span {
	ctx, cancel := context.WithTimeout(ctx, defaultPeerTimeout)
	defer cancel()
	u := node + "/v1/traces/" + key + "?local=1&root=" + url.QueryEscape(root)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil
	}
	resp, err := s.peerHTTP.Do(req)
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	var doc obs.TraceDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil
	}
	return doc.Spans
}
