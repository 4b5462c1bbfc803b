package main

import (
	"math"
	"testing"
	"time"
)

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		pct  float64
	}{
		{n: 2000, want: 99, pct: 99},      // 20 beyond p99
		{n: 1000, want: 99, pct: 99},      // exactly 10 beyond
		{n: 500, want: 99, pct: 98},       // p99 would leave 5
		{n: 100, want: 95, pct: 90},       // p95 would leave 5
		{n: 12, want: 99, pct: 50},        // floor at the median
		{n: 0, want: 99, pct: 0},          // nothing to report
		{n: 4000, want: 99.9, pct: 99.75}, // 10 of 4000 beyond
	}
	for _, c := range cases {
		if got := tailPercentile(c.n, c.want); math.Abs(got-c.pct) > 1e-9 {
			t.Errorf("tailPercentile(%d, %v) = %v, want %v", c.n, c.want, got, c.pct)
		}
	}
}

func TestSummarizeCountsSamplesBeyondTail(t *testing.T) {
	for _, n := range []int{20, 100, 500, 1000, 1500} {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending input: summarize must sort
		}
		d := summarize(xs, 99)
		if d.N != n {
			t.Fatalf("n=%d: N = %d", n, d.N)
		}
		beyond := 0
		for _, x := range xs {
			if x > d.Tail {
				beyond++
			}
		}
		if beyond < minBeyond {
			t.Errorf("n=%d: %d samples beyond p%.2f = %v, want >= %d", n, beyond, d.TailPct, d.Tail, minBeyond)
		}
		if want := float64((n + 1) / 2); d.P50 != want {
			t.Errorf("n=%d: p50 = %v, want %v", n, d.P50, want)
		}
	}
}

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	parent := interval{at(0), at(100)}
	children := []interval{
		{at(10), at(30)},  // 20
		{at(20), at(40)},  // overlaps the first: union 10..40 = 30
		{at(35), at(38)},  // inside the union: adds nothing
		{at(90), at(120)}, // sticks out: only 90..100 counts
		{at(-5), at(5)},   // starts before: only 0..5 counts
		{at(60), at(60)},  // empty
	}
	if got, want := selfTime(parent, children), 55*time.Millisecond; got != want {
		t.Fatalf("selfTime = %v, want %v", got, want)
	}
	if got := selfTime(parent, nil); got != 100*time.Millisecond {
		t.Fatalf("selfTime without children = %v", got)
	}
	if got := selfTime(parent, []interval{{at(-10), at(200)}}); got != 0 {
		t.Fatalf("selfTime fully covered = %v", got)
	}
}

func TestOpenLoopLatencyRunsFromDueTime(t *testing.T) {
	due := time.Unix(100, 0)
	// The generator stalled 40ms before sending; the server took 10ms.
	sent := due.Add(40 * time.Millisecond)
	done := sent.Add(10 * time.Millisecond)
	lat, late := openLoop(due, sent, done)
	if lat != 50*time.Millisecond || late != 40*time.Millisecond {
		t.Fatalf("openLoop = (%v, %v), want (50ms, 40ms)", lat, late)
	}
	// Sending early is not negative lateness.
	if _, late := openLoop(due, due.Add(-time.Millisecond), done); late != 0 {
		t.Fatalf("early send late = %v", late)
	}
}

func TestLadderVerdict(t *testing.T) {
	const limit = 100.0
	flat := func(rate, v float64, n int) ladderStep {
		st := ladderStep{Rate: rate}
		for i := 0; i < n; i++ {
			st.Lat = append(st.Lat, v+float64(i%5))
		}
		return st
	}
	growing := ladderStep{Rate: 40}
	for i := 0; i < 200; i++ {
		growing.Lat = append(growing.Lat, 5+0.45*float64(i)) // 5ms -> ~95ms: under the limit, but climbing
	}
	refused := flat(40, 10, 200)
	for i := 0; i < 20; i++ {
		refused.Lat[i*10] = math.Inf(1) // 10% refused: the tail misses the limit
	}

	cases := []struct {
		name  string
		steps []ladderStep
		want  float64
	}{
		{"all pass", []ladderStep{flat(10, 20, 200), flat(20, 30, 200), flat(40, 60, 200)}, 40},
		{"tail over limit", []ladderStep{flat(10, 20, 200), flat(20, 150, 200), flat(40, 60, 200)}, 10},
		{"growing backlog", []ladderStep{flat(10, 20, 200), growing}, 10},
		{"refusals miss the limit", []ladderStep{flat(10, 20, 200), refused}, 10},
		{"unsorted input", []ladderStep{flat(40, 60, 200), flat(10, 20, 200), flat(20, 30, 200)}, 40},
		{"lowest fails", []ladderStep{flat(10, 500, 200)}, 0},
	}
	for _, c := range cases {
		if got := maxSustainedRate(c.steps, limit); got != c.want {
			t.Errorf("%s: maxSustainedRate = %v, want %v", c.name, got, c.want)
		}
	}
}
