package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/measuredb"
	"repro/internal/tsdb"
)

// ingest-cluster: 2 closed-loop writers send keyed 1024-row batches
// (64 series × 16 consecutive samples) through the SDK to the
// coordinator. Every row is older than the head window, so each one
// crosses client encode, coordinator partition/forward, node scan,
// dedup, WAL, apply and, every 64Ki rows per shard, a block compaction.
const (
	ingestSeries      = 4096
	ingestBatchSeries = 64
	ingestBatchRuns   = 16
	ingestCadence     = 10 * time.Second
	ingestWriters     = 2
)

type ingestCluster struct {
	seed    int64
	f       fleet
	t0      time.Time // first sample of every series
	dep     *deployment
	writers []*ingestWriter
}

// ingestWriter owns the series of the devices with index%writers == w,
// so no two writers ever append to one series.
type ingestWriter struct {
	w     int
	rng   *rand.Rand
	owned []int
	pos   int
	batch int
	walks []walk // by series; only owned entries are used
	acked []int  // acked samples per series
}

func newIngestCluster(seed int64) *ingestCluster {
	ic := &ingestCluster{seed: seed, f: fleet{series: ingestSeries, perBuilding: 128}}
	for w := 0; w < ingestWriters; w++ {
		iw := &ingestWriter{w: w, rng: newRand(seed, uint64(100+w)),
			walks: make([]walk, ingestSeries), acked: make([]int, ingestSeries)}
		for s := 0; s < ingestSeries; s++ {
			if (s/2)%ingestWriters == w {
				iw.owned = append(iw.owned, s)
				iw.walks[s] = newWalk(seed, s)
			}
		}
		iw.rng.Shuffle(len(iw.owned), func(i, j int) { iw.owned[i], iw.owned[j] = iw.owned[j], iw.owned[i] })
		ic.writers = append(ic.writers, iw)
	}
	return ic
}

func (ic *ingestCluster) name() string            { return "ingest-cluster" }
func (ic *ingestCluster) deployment() *deployment { return ic.dep }

func (ic *ingestCluster) setup(ctx context.Context, dir string) error {
	ic.t0 = time.Now().UTC().Truncate(time.Second).Add(-24 * time.Hour)
	dep, err := bootstrap(districtSpec(dir, true, ic.seed))
	ic.dep = dep
	return err
}

// sampleAt is the timestamp of sample k of every ingest series.
func (ic *ingestCluster) sampleAt(k int) time.Time {
	return ic.t0.Add(time.Duration(k) * ingestCadence)
}

// nextBatch draws the writer's next batch: the next 64 owned series in
// a seeded rotation, 16 consecutive samples each. It returns the rows
// and the series they advance.
func (ic *ingestCluster) nextBatch(iw *ingestWriter) ([]measuredb.Point, []int, string) {
	rows := make([]measuredb.Point, 0, ingestBatchSeries*ingestBatchRuns)
	picked := make([]int, 0, ingestBatchSeries)
	for len(picked) < ingestBatchSeries {
		if iw.pos == len(iw.owned) {
			iw.rng.Shuffle(len(iw.owned), func(i, j int) { iw.owned[i], iw.owned[j] = iw.owned[j], iw.owned[i] })
			iw.pos = 0
		}
		s := iw.owned[iw.pos]
		iw.pos++
		picked = append(picked, s)
		key := ic.f.key(s)
		w := &iw.walks[s]
		for i := 0; i < ingestBatchRuns; i++ {
			at := ic.sampleAt(w.k)
			rows = append(rows, measuredb.Point{Device: key.Device, Quantity: key.Quantity, At: at, Value: w.next()})
		}
	}
	iw.batch++
	return rows, picked, fmt.Sprintf("ic-%d-%d-%d", ic.seed, iw.w, iw.batch)
}

func (ic *ingestCluster) run(ctx context.Context, d time.Duration, tr *tracer, st *phaseStats) {
	deadline := time.Now().Add(d)
	g := ic.dep.c.Ingest(ic.dep.measure)
	var wg sync.WaitGroup
	for _, iw := range ic.writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				rows, picked, key := ic.nextBatch(iw)
				octx, op := tr.begin(ctx, "write", len(rows))
				start := time.Now()
				res, err := g.Append(octx, rows, client.WithIdempotencyKey(key))
				lat := time.Since(start)
				if err == nil && (res.Accepted != len(rows) || res.Rejected != 0) {
					err = fmt.Errorf("batch %s: accepted %d rejected %d of %d", key, res.Accepted, res.Rejected, len(rows))
				}
				tr.end(op, err == nil)
				if err == nil {
					for _, s := range picked {
						iw.acked[s] += ingestBatchRuns
					}
				}
				st.write(lat, len(rows), err)
			}
		}()
	}
	wg.Wait()
}

func (ic *ingestCluster) ackedRows() int64 {
	var n int64
	for _, iw := range ic.writers {
		for _, a := range iw.acked {
			n += int64(a)
		}
	}
	return n
}

// verify is the durability check: close the deployment, verify every
// shard directory offline, reopen on the same data dirs and read every
// acked row back. Every series' aggregate must match its acked rows
// (count exactly, sum/min/max); one series in readBackEvery is also
// streamed back and compared row by row.
func (ic *ingestCluster) verify(ctx context.Context) error {
	dir := ic.dep.spec.DataDir
	ic.dep.close()
	dirs, err := engineDirs(dir)
	if err != nil {
		return err
	}
	for _, d := range dirs {
		res, err := tsdb.VerifyDataDir(d)
		if err != nil {
			return fmt.Errorf("durability: verify %s: %w", d, err)
		}
		for _, r := range res {
			if r.WAL.TornTailBytes != 0 || len(r.OrphanBlocks) != 0 {
				return fmt.Errorf("durability: verify %s: shard not clean: %+v", d, r)
			}
		}
	}
	dep, err := bootstrap(ic.dep.spec)
	if err != nil {
		return fmt.Errorf("durability: reopen: %w", err)
	}
	ic.dep = dep
	m := dep.c.Measurements(dep.measure)
	errs := make([]error, len(ic.writers))
	var wg sync.WaitGroup
	for i, iw := range ic.writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, s := range iw.owned {
				if errs[i] = ic.readBack(ctx, m, s, iw.acked[s], s%readBackEvery == 0); errs[i] != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// readBackEvery is the stride of the series the durability check
// compares row by row.
const readBackEvery = 16

// readBack checks series s against its n acked samples: by aggregate,
// and row by row when rows is set.
func (ic *ingestCluster) readBack(ctx context.Context, m *client.Measurements, s, n int, rows bool) error {
	if n == 0 {
		return nil
	}
	key := ic.f.key(s)
	want := values(ic.seed, s, n)
	to := ic.sampleAt(n - 1)
	agg, err := m.Aggregate(ctx, key.Device, key.Quantity, client.WithRange(ic.t0, to))
	if err != nil {
		return fmt.Errorf("durability: aggregate %v: %w", key, err)
	}
	ts := make([]time.Time, n)
	for k := range ts {
		ts[k] = ic.sampleAt(k)
	}
	if err := checkAgg(fmt.Sprintf("durability: %v", key), *agg, aggOf(ts, want)); err != nil || !rows {
		return err
	}
	got, err := streamAll(ctx, m, readOp{key: key, from: ic.t0, to: to})
	if err != nil {
		return fmt.Errorf("durability: stream %v: %w", key, err)
	}
	return checkPoints(fmt.Sprintf("durability: %v after reopen", key), got, ts, want)
}

// engineDirs finds the storage engine directories (those holding
// engine.json) under a data dir.
func engineDirs(root string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(root, func(p string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !e.IsDir() && e.Name() == "engine.json" {
			out = append(out, filepath.Dir(p))
		}
		return nil
	})
	if err == nil && len(out) == 0 {
		err = fmt.Errorf("no storage engine under %s", root)
	}
	return out, err
}

func (ic *ingestCluster) ladder() ladderSample {
	fresh := newIngestCluster(ic.seed)
	fresh.t0 = ic.t0
	var ls ladderSample
	for i := 0; i < ladderBatches; i++ {
		rows, _, _ := fresh.nextBatch(fresh.writers[i%ingestWriters])
		ls.writes = append(ls.writes, rows)
	}
	return ls
}

func (ic *ingestCluster) close() {
	if ic.dep != nil {
		ic.dep.close()
	}
}
