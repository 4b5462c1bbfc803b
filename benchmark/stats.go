package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the percentile rule: a tail percentile is reported only
// where at least this many samples lie beyond it.
const minBeyond = 10

// dist summarizes one sample set: its median and the highest percentile
// (at most the one asked for) that has minBeyond samples beyond it.
type dist struct {
	N       int
	P50     float64
	Tail    float64
	TailPct float64
}

// tailPercentile returns the percentile to report for n samples when want
// is asked for: want itself if at least minBeyond samples lie beyond it,
// else the highest percentile that keeps minBeyond beyond, never below the
// median.
func tailPercentile(n int, want float64) float64 {
	if n <= 0 {
		return 0
	}
	p := 100 * (1 - float64(minBeyond)/float64(n))
	if p < 50 {
		p = 50
	}
	if want < p {
		return want
	}
	return p
}

// percentile is the nearest-rank percentile of an ascending slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// summarize applies the percentile rule to xs with want as the asked-for
// tail percentile. xs is not modified.
func summarize(xs []float64, want float64) dist {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pct := tailPercentile(len(s), want)
	return dist{N: len(s), P50: percentile(s, 50), Tail: percentile(s, pct), TailPct: pct}
}

// median of xs (0 for none).
func median(xs []float64) float64 { return summarize(xs, 50).P50 }

// interval is a span's extent on one clock.
type interval struct{ start, end time.Time }

// selfTime is the parent's duration minus the part of it that the children
// cover. Children may overlap each other and may stick out of the parent;
// only their union inside the parent is subtracted.
func selfTime(parent interval, children []interval) time.Duration {
	var clipped []interval
	for _, c := range children {
		if c.start.Before(parent.start) {
			c.start = parent.start
		}
		if c.end.After(parent.end) {
			c.end = parent.end
		}
		if c.end.After(c.start) {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start.Before(clipped[j].start) })
	var covered time.Duration
	var cur interval
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case !c.start.After(cur.end):
			if c.end.After(cur.end) {
				cur.end = c.end
			}
		default:
			covered += cur.end.Sub(cur.start)
			cur = c
		}
	}
	if len(clipped) > 0 {
		covered += cur.end.Sub(cur.start)
	}
	return parent.end.Sub(parent.start) - covered
}

// openLoop times one request of an open-loop schedule: its latency runs
// from when it was due, so a stalled generator's delay counts against
// every request it held back, and late is how far behind the schedule the
// generator sent it.
func openLoop(due, sent, done time.Time) (latency, late time.Duration) {
	late = sent.Sub(due)
	if late < 0 {
		late = 0
	}
	return done.Sub(due), late
}

// ladderStep is one fixed offered rate of a capacity ladder: the latency
// of every session that arrived in the step, in arrival order, with a
// refused or failed session recorded as +Inf (it misses any limit).
type ladderStep struct {
	Rate float64
	Lat  []float64
}

// backlogGrowing reports whether latency climbed across the step: the
// median of the last quarter of arrivals is more than twice that of the
// first quarter, by more than a tenth of the limit. A queue that keeps up
// shows no such trend however busy it is.
func backlogGrowing(lat []float64, limit float64) bool {
	q := len(lat) / 4
	if q < 2 {
		return false
	}
	first, last := median(lat[:q]), median(lat[len(lat)-q:])
	return last > 2*first && last-first > limit/10
}

// stepPasses reports whether a step meets the latency limit at its p99
// (by the percentile rule) without a growing backlog.
func stepPasses(st ladderStep, limit float64) (dist, bool) {
	d := summarize(st.Lat, 99)
	return d, d.N > 0 && d.Tail <= limit && !backlogGrowing(st.Lat, limit)
}

// maxSustainedRate is the ladder verdict: the highest rate that passes,
// with every lower rate passing too (0 when the lowest fails).
func maxSustainedRate(steps []ladderStep, limit float64) float64 {
	s := append([]ladderStep(nil), steps...)
	sort.Slice(s, func(i, j int) bool { return s[i].Rate < s[j].Rate })
	best := 0.0
	for _, st := range s {
		if _, ok := stepPasses(st, limit); !ok {
			break
		}
		best = st.Rate
	}
	return best
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
