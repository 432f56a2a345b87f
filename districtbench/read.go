package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/measuredb"
	"repro/internal/tsdb"
)

// read-cluster: 2 closed-loop readers over a seeded dashboard mix on a
// cluster preloaded with 512 series × 48 h at 1 min, compacted so that
// all but the last 30 minutes sit in blocks. Popular panels (Zipf
// series popularity) repeat and hit the query cache; ad-hoc streamed
// ranges never repeat and decode blocks; downsamples read rollups;
// glob batches fan in through the coordinator.
const (
	readSeries  = 512
	readSamples = 48 * 60
	readStep    = time.Minute
	readReaders = 2
	zipfS       = 1.1
)

type readCluster struct {
	seed  int64
	f     fleet
	t0    time.Time // minute-aligned run start; the data ends 30 s before it
	ts    []time.Time
	vals  [][]float64
	full  []tsdb.Aggregate
	index map[tsdb.SeriesKey]int
	rank  []int // popularity rank → series
	dep   *deployment
	rngs  []*rand.Rand
	zipfs []*rand.Zipf
}

func newReadCluster(seed int64) *readCluster {
	rc := &readCluster{seed: seed, f: fleet{series: readSeries, perBuilding: 16}, index: map[tsdb.SeriesKey]int{}}
	for s := 0; s < readSeries; s++ {
		rc.vals = append(rc.vals, values(seed, s, readSamples))
		rc.index[rc.f.key(s)] = s
	}
	rc.rank = newRand(seed, 200).Perm(readSeries)
	for r := 0; r < readReaders; r++ {
		rng := newRand(seed, uint64(300+r))
		rc.rngs = append(rc.rngs, rng)
		rc.zipfs = append(rc.zipfs, rand.NewZipf(rng, zipfS, 1, readSeries-1))
	}
	return rc
}

func (rc *readCluster) name() string            { return "read-cluster" }
func (rc *readCluster) deployment() *deployment { return rc.dep }
func (rc *readCluster) ackedRows() int64        { return readSeries * readSamples }

func (rc *readCluster) setup(ctx context.Context, dir string) error {
	rc.t0 = time.Now().UTC().Truncate(time.Minute)
	rc.ts = make([]time.Time, readSamples)
	for k := range rc.ts {
		rc.ts[k] = rc.t0.Add(-48*time.Hour + time.Duration(k)*readStep + 30*time.Second)
	}
	rc.full = make([]tsdb.Aggregate, readSeries)
	for s := range rc.full {
		rc.full[s] = aggOf(rc.ts, rc.vals[s])
	}
	dep, err := bootstrap(districtSpec(dir, true, rc.seed))
	rc.dep = dep
	if err != nil {
		return err
	}
	if err := preload(ctx, dep, rc.f, readSeries, rc.ts, rc.vals, "rc"); err != nil {
		return err
	}
	return dep.compact(ctx)
}

// preload writes whole series histories through the deployment's
// entry point with two writers and 8 series per keyed batch.
func preload(ctx context.Context, dep *deployment, f fleet, series int, ts []time.Time, vals [][]float64, tag string) error {
	const perBatch = 8
	g := dep.c.Ingest(dep.measure)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for first := w * perBatch; first < series && errs[w] == nil; first += 2 * perBatch {
				var rows []measuredb.Point
				for s := first; s < min(first+perBatch, series); s++ {
					key := f.key(s)
					for k, at := range ts {
						rows = append(rows, measuredb.Point{Device: key.Device, Quantity: key.Quantity, At: at, Value: vals[s][k]})
					}
				}
				res, err := g.Append(ctx, rows, client.WithIdempotencyKey(fmt.Sprintf("%s-preload-%d", tag, first)))
				if err == nil && res.Accepted != len(rows) {
					err = fmt.Errorf("preload: accepted %d of %d", res.Accepted, len(rows))
				}
				errs[w] = err
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// window returns the oracle's samples of series s inside [from, to].
func (rc *readCluster) window(s int, from, to time.Time) ([]time.Time, []float64) {
	lo, hi := 0, len(rc.ts)
	for lo < hi && rc.ts[lo].Before(from) {
		lo++
	}
	for hi > lo && rc.ts[hi-1].After(to) {
		hi--
	}
	return rc.ts[lo:hi], rc.vals[s][lo:hi]
}

func (rc *readCluster) run(ctx context.Context, d time.Duration, tr *tracer, st *phaseStats) {
	deadline := time.Now().Add(d)
	m := rc.dep.c.Measurements(rc.dep.measure)
	var wg sync.WaitGroup
	for r := 0; r < readReaders; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				op := rc.nextOp(r)
				octx, span := tr.begin(ctx, "read", 0)
				start := time.Now()
				err := rc.do(octx, m, op)
				lat := time.Since(start)
				tr.end(span, err == nil)
				st.read(lat, err)
			}
		}()
	}
	wg.Wait()
}

// readOp is one generated query. The ladder replays the same values at
// every layer's entry point.
type readOp struct {
	kind     string // latest, page, stream, aggregate, downsample, batch
	series   int
	key      tsdb.SeriesKey
	glob     string // batch
	want     int    // batch: series the glob matches
	from, to time.Time
	limit    int // page
}

// nextOp draws reader r's next query from the mix.
func (rc *readCluster) nextOp(r int) readOp {
	rng := rc.rngs[r]
	s := rc.rank[rc.zipfs[r].Uint64()]
	op := readOp{series: s, key: rc.f.key(s)}
	switch p := rng.IntN(100); {
	case p < 30:
		op.kind = "latest"
	case p < 50:
		op.kind, op.from, op.to = "page", rc.t0.Add(-15*time.Minute), rc.t0
	case p < 65:
		// A random 2 h window with a millisecond offset: never repeats,
		// never lands on a sample.
		off := time.Duration(rng.IntN(46*3600))*time.Second + time.Duration(1+rng.IntN(998))*time.Millisecond
		op.kind, op.from = "stream", rc.t0.Add(-48*time.Hour+off)
		op.to = op.from.Add(2 * time.Hour)
	case p < 80:
		op.kind, op.from, op.to = "aggregate", rc.ts[0].Add(-time.Hour), rc.t0
	case p < 90:
		op.kind, op.from, op.to = "downsample", rc.t0.Add(-24*time.Hour), rc.t0
	case p < 98:
		op.kind, op.glob, op.want = "batch", rc.f.buildingGlob(rng.IntN(rc.f.buildings())), readSeries/rc.f.buildings()
		op.from, op.to = rc.ts[0].Add(-time.Hour), rc.t0
	default:
		op.kind, op.glob, op.want = "batch", fleetGlob, readSeries
		op.from, op.to = rc.ts[0].Add(-time.Hour), rc.t0
	}
	return op
}

// do runs one query and checks it against the oracle.
func (rc *readCluster) do(ctx context.Context, m *client.Measurements, op readOp) error {
	key := op.key
	what := fmt.Sprintf("%s %v", op.kind, key)
	switch op.kind {
	case "latest":
		got, err := m.Latest(ctx, key.Device, key.Quantity)
		if err != nil {
			return err
		}
		want := rc.full[op.series].Last
		if !got.Timestamp.Equal(want.At) || got.Value != want.Value {
			return fmt.Errorf("%s = %v/%g, want %v/%g", what, got.Timestamp, got.Value, want.At, want.Value)
		}
	case "page":
		page, err := m.Samples(ctx, key.Device, key.Quantity, client.WithRange(op.from, op.to))
		if err != nil {
			return err
		}
		ts, vs := rc.window(op.series, op.from, op.to)
		return checkPoints(what, page.Samples, ts, vs)
	case "stream":
		got, err := streamAll(ctx, m, op)
		if err != nil {
			return err
		}
		ts, vs := rc.window(op.series, op.from, op.to)
		return checkPoints(what, got, ts, vs)
	case "aggregate":
		got, err := m.Aggregate(ctx, key.Device, key.Quantity, client.WithRange(op.from, op.to))
		if err != nil {
			return err
		}
		return checkAgg(what, *got, rc.full[op.series])
	case "downsample":
		got, err := m.Downsample(ctx, key.Device, key.Quantity, time.Hour, client.WithRange(op.from, op.to))
		if err != nil {
			return err
		}
		ts, vs := rc.window(op.series, op.from, op.to)
		return checkBuckets(what, got, bucketsOf(ts, vs, op.from, time.Hour))
	case "batch":
		return rc.batchAggregate(ctx, m, op)
	}
	return nil
}

// streamAll drains a streamed NDJSON read.
func streamAll(ctx context.Context, m *client.Measurements, op readOp) ([]measuredb.Point, error) {
	stream, err := m.Stream(ctx, op.key.Device, op.key.Quantity, client.WithRange(op.from, op.to))
	if err != nil {
		return nil, err
	}
	defer stream.Close()
	var got []measuredb.Point
	for p, ok := stream.Next(); ok; p, ok = stream.Next() {
		got = append(got, p)
	}
	return got, stream.Err()
}

func (op readOp) batchQuery() measuredb.BatchQuery {
	return measuredb.BatchQuery{
		Selectors: []measuredb.SeriesSelector{{Device: op.glob}},
		From:      op.from, To: op.to, Aggregate: true,
	}
}

// batchAggregate runs a glob batch aggregate and checks every series
// it returns.
func (rc *readCluster) batchAggregate(ctx context.Context, m *client.Measurements, op readOp) error {
	rsp, err := m.Query(ctx, op.batchQuery())
	if err != nil {
		return err
	}
	if len(rsp.Results) != 1 || rsp.Results[0].Error != "" || len(rsp.Results[0].Series) != op.want {
		return fmt.Errorf("batch %s: %d results, want 1 with %d series", op.glob, len(rsp.Results), op.want)
	}
	for _, bs := range rsp.Results[0].Series {
		s, ok := rc.index[tsdb.SeriesKey{Device: bs.Device, Quantity: bs.Quantity}]
		if !ok || bs.Aggregate == nil {
			return fmt.Errorf("batch %s: unexpected series %s/%s", op.glob, bs.Device, bs.Quantity)
		}
		if err := checkAgg("batch "+op.glob, *bs.Aggregate, rc.full[s]); err != nil {
			return err
		}
	}
	return nil
}

func (rc *readCluster) verify(context.Context) error { return nil }

func (rc *readCluster) ladder() ladderSample {
	fresh := newReadCluster(rc.seed)
	fresh.t0, fresh.ts = rc.t0, rc.ts
	var ls ladderSample
	for i := 0; i < ladderQueries; i++ {
		ls.queries = append(ls.queries, fresh.nextOp(i%readReaders))
	}
	ls.load = func(put func([]tsdb.Row) error) error {
		for s := 0; s < readSeries; s++ {
			key := rc.f.key(s)
			rows := make([]tsdb.Row, len(rc.ts))
			for k, at := range rc.ts {
				rows[k] = tsdb.Row{Key: key, Sample: tsdb.Sample{At: at, Value: rc.vals[s][k]}}
			}
			if err := put(rows); err != nil {
				return err
			}
		}
		return nil
	}
	return ls
}

func (rc *readCluster) close() {
	if rc.dep != nil {
		rc.dep.close()
	}
}
