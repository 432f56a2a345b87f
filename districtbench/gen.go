package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"repro/internal/measuredb"
	"repro/internal/tsdb"
)

// Every input the benchmark sends is a pure function of the seed and of
// offsets from the run's start time: series names, values, batch
// composition, read mixes and the open-loop schedule.

var quantities = [2]string{"temperature", "power.active"}

// fleet names a set of series: devices spread evenly over buildings,
// each device carrying both quantities. Series s is device s/2,
// quantity s%2.
type fleet struct {
	series      int
	perBuilding int // devices per building
}

func (f fleet) device(s int) string {
	d := s / 2
	return fmt.Sprintf("urn:district:fleet/building:b%02d/device:d%04d", d/f.perBuilding, d)
}

func (f fleet) key(s int) tsdb.SeriesKey {
	return tsdb.SeriesKey{Device: f.device(s), Quantity: quantities[s%2]}
}

// buildingGlob selects every series of one building.
func (f fleet) buildingGlob(b int) string {
	return fmt.Sprintf("urn:district:fleet/building:b%02d/*", b)
}

func (f fleet) buildings() int { return f.series / 2 / f.perBuilding }

// fleetGlob selects the whole fleet.
const fleetGlob = "urn:district:fleet/*"

// mix64 is the splitmix64 finaliser: a stateless hash from which the
// value walks are drawn, so any sample can be regenerated from (seed,
// series, index) alone.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// walk is one series' value sequence: a quantized 0.25-step random
// walk. Quarter steps keep every value, sum and mean exactly
// representable, so the oracle compares aggregates exactly.
type walk struct {
	h uint64
	k int
	v float64
}

func newWalk(seed int64, s int) walk {
	h := mix64(uint64(seed)*0x100000001b3 ^ uint64(s)<<20)
	return walk{h: h, v: 10 + float64(h%80)*0.25}
}

// next returns the walk's next value.
func (w *walk) next() float64 {
	v := w.v
	w.k++
	w.v += 0.25 * float64(int(mix64(w.h^uint64(w.k))%3)-1)
	return v
}

// values returns the first n values of series s's walk.
func values(seed int64, s, n int) []float64 {
	w := newWalk(seed, s)
	out := make([]float64, n)
	for i := range out {
		out[i] = w.next()
	}
	return out
}

func newRand(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

// aggOf folds samples into the expected aggregate.
func aggOf(ts []time.Time, vs []float64) tsdb.Aggregate {
	var a tsdb.Aggregate
	for i, v := range vs {
		if a.Count == 0 || v < a.Min {
			a.Min = v
		}
		if a.Count == 0 || v > a.Max {
			a.Max = v
		}
		if a.Count == 0 {
			a.First = tsdb.Sample{At: ts[i], Value: v}
		}
		a.Last = tsdb.Sample{At: ts[i], Value: v}
		a.Sum += v
		a.Count++
	}
	if a.Count > 0 {
		a.Mean = a.Sum / float64(a.Count)
	}
	return a
}

// near reports whether two sums agree to floating-point tolerance.
func near(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// checkAgg compares an aggregate response against the oracle: count
// exactly, sum/min/max to fp tolerance.
func checkAgg(what string, got measuredb.AggregateResponse, want tsdb.Aggregate) error {
	if got.Count != want.Count || !near(got.Sum, want.Sum) || !near(got.Min, want.Min) || !near(got.Max, want.Max) {
		return fmt.Errorf("%s: aggregate count=%d sum=%g min=%g max=%g, want count=%d sum=%g min=%g max=%g",
			what, got.Count, got.Sum, got.Min, got.Max, want.Count, want.Sum, want.Min, want.Max)
	}
	return nil
}

// checkBuckets compares downsample buckets against the oracle.
func checkBuckets(what string, got, want []tsdb.Bucket) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d buckets, want %d", what, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if !g.Start.Equal(w.Start) || g.Count != w.Count || !near(g.Sum, w.Sum) || !near(g.Min, w.Min) || !near(g.Max, w.Max) {
			return fmt.Errorf("%s: bucket %d = %v/%d/%g, want %v/%d/%g", what, i, g.Start, g.Count, g.Sum, w.Start, w.Count, w.Sum)
		}
	}
	return nil
}

// bucketsOf downsamples samples the way the store defines it: windows
// aligned to the epoch, the first clipped to from, empty ones omitted.
func bucketsOf(ts []time.Time, vs []float64, from time.Time, window time.Duration) []tsdb.Bucket {
	startOf := func(t time.Time) time.Time {
		if s := t.Truncate(window); s.After(from) {
			return s
		}
		return from
	}
	var out []tsdb.Bucket
	for i := 0; i < len(ts); {
		start := startOf(ts[i])
		j := i + 1
		for j < len(ts) && startOf(ts[j]).Equal(start) {
			j++
		}
		out = append(out, tsdb.Bucket{Start: start, Aggregate: aggOf(ts[i:j], vs[i:j])})
		i = j
	}
	return out
}

// checkPoints compares returned samples against the oracle's.
func checkPoints(what string, got []measuredb.Point, ts []time.Time, vs []float64) error {
	if len(got) != len(ts) {
		return fmt.Errorf("%s: %d samples, want %d", what, len(got), len(ts))
	}
	for i, p := range got {
		if !p.At.Equal(ts[i]) || p.Value != vs[i] {
			return fmt.Errorf("%s: sample %d = %v/%g, want %v/%g", what, i, p.At, p.Value, ts[i], vs[i])
		}
	}
	return nil
}
