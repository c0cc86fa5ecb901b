package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed: summarize must sort
	}
	return xs
}

func TestSummarizeLarge(t *testing.T) {
	p := summarize(seq(2000))
	if p.N != 2000 || p.P50 != 1000 {
		t.Fatalf("n/p50 = %d/%v, want 2000/1000", p.N, p.P50)
	}
	// p99.9 of 2000 leaves 2 beyond, p99 leaves 20: p99 is the tail.
	if p.TailQ != 99 || p.Tail != 1980 || p.P99 != 1980 {
		t.Fatalf("tail = p%v %v, p99 %v; want p99 1980", p.TailQ, p.Tail, p.P99)
	}
}

func TestSummarizeHighestTail(t *testing.T) {
	p := summarize(seq(20000))
	if p.TailQ != 99.9 || p.Tail != 19980 {
		t.Fatalf("tail = p%v %v, want p99.9 19980", p.TailQ, p.Tail)
	}
	if p.P99 != 19800 {
		t.Fatalf("p99 = %v, want 19800", p.P99)
	}
}

func TestSummarizeMidSized(t *testing.T) {
	// 100 samples: p99 has 1 beyond, p90 has 10 — the tail falls back to
	// p90 and so does the p99 field.
	p := summarize(seq(100))
	if p.TailQ != 90 || p.Tail != 90 || p.P99 != 90 {
		t.Fatalf("tail = p%v %v, p99 %v; want p90 90", p.TailQ, p.Tail, p.P99)
	}
}

func TestSummarizeTooFew(t *testing.T) {
	// 12 samples: even the median has only 6 beyond it, so no ladder
	// percentile qualifies and the tail is the maximum.
	p := summarize(seq(12))
	if p.TailQ != 0 || p.Tail != 12 || p.P99 != 12 {
		t.Fatalf("tail = p%v %v, p99 %v; want too-few (0) with max 12", p.TailQ, p.Tail, p.P99)
	}
	if p.P50 != 6 || p.N != 12 {
		t.Fatalf("p50/n = %v/%d, want 6/12", p.P50, p.N)
	}
	if e := summarize(nil); e.N != 0 || e.P50 != 0 || e.TailQ != 0 {
		t.Fatalf("empty sample = %+v, want zero", e)
	}
}
