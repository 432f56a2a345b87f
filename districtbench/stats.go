package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile:
// with fewer, the percentile is decided by a handful of outliers and
// is refused rather than printed.
const minTail = 10

// Dist is a set of latency samples in milliseconds.
type Dist struct {
	ms []float64
}

// Add records one duration.
func (d *Dist) Add(v time.Duration) { d.ms = append(d.ms, float64(v)/float64(time.Millisecond)) }

// N returns the sample count.
func (d *Dist) N() int { return len(d.ms) }

// Percentile returns the p-th percentile (0 < p < 100) by the
// nearest-rank rule. It fails when fewer than minTail samples lie
// beyond the rank.
func (d *Dist) Percentile(p float64) (float64, error) {
	n := len(d.ms)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if n == 0 || n-rank < minTail {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d of %d", p, minTail, max(n-rank, 0), n)
	}
	s := append([]float64(nil), d.ms...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// Mean returns the arithmetic mean (0 for no samples).
func (d *Dist) Mean() float64 {
	if len(d.ms) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range d.ms {
		s += v
	}
	return s / float64(len(d.ms))
}

// interval is a closed-open time span [start, end).
type interval struct{ start, end time.Time }

// unionLen returns the total length covered by the intervals, counting
// overlapping stretches once. A parent span's self time is its length
// minus the union of its children clipped to it.
func unionLen(ivs []interval) time.Duration {
	if len(ivs) == 0 {
		return 0
	}
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i].start.Before(s[j].start) })
	var total time.Duration
	cur := s[0]
	for _, iv := range s[1:] {
		if iv.start.After(cur.end) {
			total += cur.end.Sub(cur.start)
			cur = iv
			continue
		}
		if iv.end.After(cur.end) {
			cur.end = iv.end
		}
	}
	return total + cur.end.Sub(cur.start)
}

// selfTime returns parent's length minus the union of children clipped
// to parent.
func selfTime(parent interval, children []interval) time.Duration {
	clipped := make([]interval, 0, len(children))
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
	return parent.end.Sub(parent.start) - unionLen(clipped)
}

// median returns the median of vs (0 for none).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
