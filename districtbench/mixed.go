package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/dataformat"
	"repro/internal/gis"
	"repro/internal/measuredb"
	"repro/internal/ontology"
	"repro/internal/stream"
	"repro/internal/tsdb"
)

// district-mixed: the single-node durable district (16 buildings × 4
// devices, all four protocols, 2 networks) under one seeded open-loop
// schedule run by one worker, plus one SSE subscriber on the written
// fleet. Writes sit beside reads on one node and keep the cache
// generations moving; it is the only workload that crosses the master,
// the model proxies, the integration engine, the device proxies and the
// stream hub.
const (
	mixedSeries    = 1024
	mixedPreloaded = 256 // the first series carry 24 h of history
	mixedHistory   = 24 * 60
	// mixedBatchRows keeps one batch's burst of SSE events at a quarter
	// of the hub's 256-entry subscriber queue. A burst that overflows it
	// while the node's SSE writer still holds earlier rows evicts the
	// only subscriber, and rows ingested until it reconnects are never
	// streamed (see METRICS.md).
	mixedBatchRows  = 64
	mixedWritesPerS = 80 // write batches: 5,120 rows/s
	mixedReadsPerS  = 50 // dashboard queries
	mixedAreasPerS  = 1  // area models
	mixedPollPeriod = 2 * time.Second
	mixedPageLimit  = 100
	// maxLateP99 is how far behind its schedule the generator may run
	// (p99 of start − due) before the run is invalid: about ten
	// scheduled operations' worth of delay for over 1% of the run. An
	// area model run inline already delays the operations behind it by
	// tens of milliseconds on a healthy run.
	maxLateP99 = 100 * time.Millisecond
	// deliveryWait bounds how long the subscriber may lag behind the
	// last acked write at the end of a run.
	deliveryWait = 10 * time.Second
)

type event struct {
	at    time.Duration // offset from the schedule's start
	kind  string        // write, read, poll, area
	arg   int           // read: op selector; poll: proxy index; area: quadrant
	s     int           // read: series
	batch int           // write: batch number
}

// inFlight is a written batch whose rows the subscriber has not all
// received yet.
type inFlight struct {
	due  time.Time
	left int
}

type sample struct {
	at time.Time
	v  float64
}

type districtMixed struct {
	seed  int64
	f     fleet
	t0    time.Time
	dep   *deployment
	sched []event
	next  int // first event not yet run
	walks []walk
	// acked holds every acked sample per series, in write order; the
	// single worker makes it the exact state each read must observe.
	acked [][]sample

	sub      *stream.Subscription
	subDone  chan struct{}
	subMu    sync.Mutex
	received [][]sample
	subErr   error
	pending  map[int64]*inFlight // by the batch's sample time (unix ns)
	fresh    *phaseStats         // where deliveries are recorded

	areas    [4]client.Area
	areaWant [4]int
}

func newDistrictMixed(seed int64, horizon time.Duration) *districtMixed {
	dm := &districtMixed{seed: seed, f: fleet{series: mixedSeries, perBuilding: 32}}
	for s := 0; s < mixedSeries; s++ {
		dm.walks = append(dm.walks, newWalk(seed, s))
	}
	spec := districtSpec("", false, seed)
	dm.sched = schedule(seed, horizon, spec.Buildings*spec.DevicesPerBuilding)
	return dm
}

// schedule builds the open-loop schedule. Each second holds exactly
// the per-second counts of write batches, dashboard reads and area
// models, at independent uniform times: a Poisson process conditioned
// on its count per second, so every run offers the same mix. Each
// device proxy polls every 2 s at a seeded phase.
func schedule(seed int64, horizon time.Duration, proxies int) []event {
	rng := newRand(seed, 400)
	var out []event
	for sec := time.Duration(0); sec < horizon; sec += time.Second {
		at := func() time.Duration { return sec + time.Duration(rng.Int64N(int64(time.Second))) }
		for i := 0; i < mixedWritesPerS; i++ {
			out = append(out, event{at: at(), kind: "write"})
		}
		for i := 0; i < mixedReadsPerS; i++ {
			out = append(out, event{at: at(), kind: "read", arg: rng.IntN(3), s: rng.IntN(mixedPreloaded)})
		}
		for i := 0; i < mixedAreasPerS; i++ {
			out = append(out, event{at: at(), kind: "area", arg: rng.IntN(4)})
		}
	}
	for p := 0; p < proxies; p++ {
		for t := time.Duration(rng.Int64N(int64(mixedPollPeriod))); t < horizon; t += mixedPollPeriod {
			out = append(out, event{at: t, kind: "poll", arg: p})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].at < out[j].at })
	batch := 0
	for i := range out {
		if out[i].kind == "write" {
			out[i].batch = batch
			batch++
		}
	}
	return out
}

func (dm *districtMixed) name() string            { return "district-mixed" }
func (dm *districtMixed) deployment() *deployment { return dm.dep }

func (dm *districtMixed) ackedRows() int64 {
	var n int64
	for _, a := range dm.acked {
		n += int64(len(a))
	}
	return n
}

func (dm *districtMixed) setup(ctx context.Context, dir string) error {
	dm.t0 = time.Now().UTC().Truncate(time.Minute)
	dep, err := bootstrap(districtSpec(dir, false, dm.seed))
	dm.dep = dep
	if err != nil {
		return err
	}
	ts := make([]time.Time, mixedHistory)
	for k := range ts {
		ts[k] = dm.t0.Add(-24*time.Hour + time.Duration(k)*time.Minute + 30*time.Second)
	}
	vals := make([][]float64, mixedPreloaded)
	dm.acked = make([][]sample, mixedSeries)
	for s := range vals {
		vals[s] = make([]float64, len(ts))
		for k := range ts {
			vals[s][k] = dm.walks[s].next()
			dm.acked[s] = append(dm.acked[s], sample{ts[k], vals[s][k]})
		}
	}
	if err := preload(ctx, dep, dm.f, mixedPreloaded, ts, vals, "dm"); err != nil {
		return err
	}
	if err := dep.compact(ctx); err != nil {
		return err
	}
	if err := dm.planAreas(ctx); err != nil {
		return err
	}
	return dm.subscribe(ctx)
}

// planAreas splits the district into four quadrants of its building
// footprints' bounding box. A reference build of each quadrant fixes the
// entity count every later build must return; the reference itself must
// hold every building whose footprint centre lies in the quadrant
// together with all of its devices.
func (dm *districtMixed) planAreas(ctx context.Context) error {
	feats := dm.dep.d.GIS.Store().ByKind(gis.FeatureBuilding)
	minLat, minLon, maxLat, maxLon := math.Inf(1), math.Inf(1), math.Inf(-1), math.Inf(-1)
	for _, f := range feats {
		for _, p := range f.Footprint {
			minLat, maxLat = math.Min(minLat, p.Lat), math.Max(maxLat, p.Lat)
			minLon, maxLon = math.Min(minLon, p.Lon), math.Max(maxLon, p.Lon)
		}
	}
	midLat, midLon := (minLat+maxLat)/2, (minLon+maxLon)/2
	dm.areas = [4]client.Area{
		{MinLat: minLat, MinLon: minLon, MaxLat: midLat, MaxLon: midLon},
		{MinLat: minLat, MinLon: midLon, MaxLat: midLat, MaxLon: maxLon},
		{MinLat: midLat, MinLon: minLon, MaxLat: maxLat, MaxLon: midLon},
		{MinLat: midLat, MinLon: midLon, MaxLat: maxLat, MaxLon: maxLon},
	}
	for q, a := range dm.areas {
		model, err := dm.dep.c.BuildAreaModel(ctx, dm.dep.spec.District, a, client.BuildOptions{IncludeDevices: true, IncludeGIS: true})
		if err != nil {
			return err
		}
		for _, f := range feats {
			lat, lon := centre(f.Footprint)
			if lat < a.MinLat || lat > a.MaxLat || lon < a.MinLon || lon > a.MaxLon {
				continue
			}
			want := []string{f.ID}
			for i := 0; i < dm.dep.spec.DevicesPerBuilding; i++ {
				want = append(want, ontology.DeviceURI(f.ID, fmt.Sprintf("d%02d", i)))
			}
			for _, uri := range want {
				if _, ok := model.Entity(uri); !ok {
					return fmt.Errorf("area %d: model lacks %s", q, uri)
				}
			}
		}
		dm.areaWant[q] = len(model.Entities)
	}
	return nil
}

func centre(ps []gis.Point) (lat, lon float64) {
	for _, p := range ps {
		lat += p.Lat
		lon += p.Lon
	}
	return lat / float64(len(ps)), lon / float64(len(ps))
}

// subscribe opens the SSE subscription on the node's stream for the
// written fleet.
func (dm *districtMixed) subscribe(ctx context.Context) error {
	dm.received = make([][]sample, mixedSeries)
	dm.pending = map[int64]*inFlight{}
	index := map[string]int{}
	for s := 0; s < mixedSeries; s++ {
		k := dm.f.key(s)
		index[k.Device+"\x00"+k.Quantity] = s
	}
	// The buffer holds over a second of the fleet's ~5,000 rows/s, so a
	// slow decode never pushes back on the server's queue.
	sub, err := stream.Subscribe(ctx, dm.dep.measure, measuredb.TopicRoot+"/fleet/#", stream.SubscribeOptions{Buffer: 8192})
	if err != nil {
		return err
	}
	dm.sub = sub
	dm.subDone = make(chan struct{})
	go func() {
		defer close(dm.subDone)
		for ev := range sub.Events {
			now := time.Now()
			doc, err := dataformat.Decode(ev.Payload, dataformat.JSON)
			if err != nil || doc.Measurement == nil {
				dm.subFail(fmt.Errorf("sse: undecodable event on %s: %v", ev.Topic, err))
				continue
			}
			m := doc.Measurement
			s, ok := index[m.Device+"\x00"+string(m.Quantity)]
			if !ok {
				dm.subFail(fmt.Errorf("sse: event for unknown series %s/%s", m.Device, m.Quantity))
				continue
			}
			dm.subMu.Lock()
			dm.received[s] = append(dm.received[s], sample{m.Timestamp, m.Value})
			at := m.Timestamp.UnixNano()
			if b := dm.pending[at]; b != nil {
				if b.left--; b.left == 0 {
					delete(dm.pending, at)
					if dm.fresh != nil {
						dm.fresh.mu.Lock()
						dm.fresh.fresh.Add(now.Sub(b.due))
						dm.fresh.mu.Unlock()
					}
				}
			}
			dm.subMu.Unlock()
		}
	}()
	// Subscribe connects in the background; rows published before the
	// node registers the subscriber would never reach it.
	for deadline := time.Now().Add(deliveryWait); sumOf(scrape(ctx, dm.dep, dm.dep.nodes), "repro_stream_subscribers") < 1; {
		if time.Now().After(deadline) {
			return fmt.Errorf("sse: subscriber not registered after %v", deliveryWait)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

func (dm *districtMixed) subFail(err error) {
	dm.subMu.Lock()
	if dm.subErr == nil {
		dm.subErr = err
	}
	dm.subMu.Unlock()
}

// run executes the schedule's next d of events, timing each from its
// due time. The schedule is rebased so the phase's first event is due
// now.
func (dm *districtMixed) run(ctx context.Context, d time.Duration, tr *tracer, st *phaseStats) {
	if dm.next >= len(dm.sched) {
		return
	}
	first := dm.sched[dm.next].at
	base := time.Now().Add(-first)
	dm.subMu.Lock()
	dm.fresh = st
	dm.subMu.Unlock()
	m := dm.dep.c.Measurements(dm.dep.measure)
	g := dm.dep.c.Ingest(dm.dep.measure)
	for ; dm.next < len(dm.sched) && dm.sched[dm.next].at < first+d && ctx.Err() == nil; dm.next++ {
		ev := dm.sched[dm.next]
		due := base.Add(ev.at)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		st.mu.Lock()
		st.late.Add(time.Since(due))
		st.mu.Unlock()
		switch ev.kind {
		case "write":
			dm.write(ctx, g, tr, st, ev, due)
		case "read":
			octx, op := tr.begin(ctx, "read", 0)
			err := dm.read(octx, m, ev, due)
			tr.end(op, err == nil)
			st.read(time.Since(due), err)
		case "poll":
			start := time.Now()
			dm.dep.d.DeviceProxies[ev.arg].PollOnce()
			st.polled(time.Since(due), time.Since(start))
		case "area":
			octx, op := tr.begin(ctx, "area", 0)
			err := dm.area(octx, ev.arg)
			tr.end(op, err == nil)
			st.areaModel(time.Since(due), err)
		}
	}
}

// write sends one near-now batch: one sample at the due time for each
// of a sixteenth of the fleet, in rotation.
func (dm *districtMixed) write(ctx context.Context, g *client.Ingest, tr *tracer, st *phaseStats, ev event, due time.Time) {
	at := due.UTC().Truncate(time.Microsecond)
	first := (ev.batch % (mixedSeries / mixedBatchRows)) * mixedBatchRows
	rows := make([]measuredb.Point, 0, mixedBatchRows)
	for s := first; s < first+mixedBatchRows; s++ {
		key := dm.f.key(s)
		rows = append(rows, measuredb.Point{Device: key.Device, Quantity: key.Quantity, At: at, Value: dm.walks[s].next()})
	}
	dm.subMu.Lock()
	dm.pending[at.UnixNano()] = &inFlight{due: due, left: len(rows)}
	dm.subMu.Unlock()
	octx, op := tr.begin(ctx, "write", len(rows))
	res, err := g.Append(octx, rows, client.WithIdempotencyKey(fmt.Sprintf("dm-%d-%d", dm.seed, ev.batch)))
	if err == nil && (res.Accepted != len(rows) || res.Rejected != 0) {
		err = fmt.Errorf("batch %d: accepted %d rejected %d of %d", ev.batch, res.Accepted, res.Rejected, len(rows))
	}
	tr.end(op, err == nil)
	if err == nil {
		for i, r := range rows {
			dm.acked[first+i] = append(dm.acked[first+i], sample{r.At, r.Value})
		}
	}
	st.write(time.Since(due), len(rows), err)
}

// window returns series s's acked samples inside [from, to].
func (dm *districtMixed) window(s int, from, to time.Time) ([]time.Time, []float64) {
	var ts []time.Time
	var vs []float64
	for _, smp := range dm.acked[s] {
		if !smp.at.Before(from) && !smp.at.After(to) {
			ts = append(ts, smp.at)
			vs = append(vs, smp.v)
		}
	}
	return ts, vs
}

// read runs one live-dashboard query over the last 15 minutes.
func (dm *districtMixed) read(ctx context.Context, m *client.Measurements, ev event, due time.Time) error {
	key := dm.f.key(ev.s)
	from, to := due.Add(-15*time.Minute), due
	switch ev.arg {
	case 0:
		got, err := m.Latest(ctx, key.Device, key.Quantity)
		if err != nil {
			return err
		}
		want := dm.acked[ev.s][len(dm.acked[ev.s])-1]
		if !got.Timestamp.Equal(want.at) || got.Value != want.v {
			return fmt.Errorf("latest %v = %v/%g, want %v/%g", key, got.Timestamp, got.Value, want.at, want.v)
		}
	case 1:
		page, err := m.Samples(ctx, key.Device, key.Quantity, client.WithRange(from, to), client.WithLimit(mixedPageLimit))
		if err != nil {
			return err
		}
		ts, vs := dm.window(ev.s, from, to)
		n := min(len(ts), mixedPageLimit)
		return checkPoints(fmt.Sprintf("page %v", key), page.Samples, ts[:n], vs[:n])
	case 2:
		got, err := m.Aggregate(ctx, key.Device, key.Quantity, client.WithRange(from, to))
		if err != nil {
			return err
		}
		ts, vs := dm.window(ev.s, from, to)
		return checkAgg(fmt.Sprintf("aggregate %v", key), *got, aggOf(ts, vs))
	}
	return nil
}

// area builds one quadrant's area model and checks its entity count.
func (dm *districtMixed) area(ctx context.Context, q int) error {
	model, err := dm.dep.c.BuildAreaModel(ctx, dm.dep.spec.District, dm.areas[q], client.BuildOptions{IncludeDevices: true, IncludeGIS: true})
	if err != nil {
		return err
	}
	if len(model.Entities) != dm.areaWant[q] {
		return fmt.Errorf("area %d: %d entities, want %d", q, len(model.Entities), dm.areaWant[q])
	}
	return nil
}

// verify is the delivery check: the subscriber must have received every
// acked row of the fleet exactly once and in order.
func (dm *districtMixed) verify(ctx context.Context) error {
	deadline := time.Now().Add(deliveryWait)
	for {
		dm.subMu.Lock()
		left := len(dm.pending)
		dm.subMu.Unlock()
		if left == 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	dm.sub.Close()
	<-dm.subDone
	if dm.subErr != nil {
		return dm.subErr
	}
	if err := dm.sub.Err(); err != nil && ctx.Err() == nil && err != context.Canceled {
		return fmt.Errorf("sse: subscription ended: %w", err)
	}
	for s := range dm.acked {
		live := dm.acked[s]
		if s < mixedPreloaded {
			live = live[mixedHistory:]
		}
		got := dm.received[s]
		if len(got) != len(live) {
			return fmt.Errorf("sse: %v delivered %d of %d written rows (%d reconnects, %g evictions)", dm.f.key(s), len(got), len(live), dm.sub.Reconnects(), sumOf(scrape(ctx, dm.dep, dm.dep.nodes), "repro_stream_evicted_total"))
		}
		for i := range live {
			if !got[i].at.Equal(live[i].at) || got[i].v != live[i].v {
				return fmt.Errorf("sse: %v row %d = %v/%g, want %v/%g (out of order or duplicated)", dm.f.key(s), i, got[i].at, got[i].v, live[i].at, live[i].v)
			}
		}
	}
	return nil
}

// ladder samples the schedule's first write batches and reads, posed
// against the preloaded history.
func (dm *districtMixed) ladder() ladderSample {
	var ls ladderSample
	walks := make([]walk, mixedSeries)
	for s := range walks {
		walks[s] = newWalk(dm.seed, s)
		for k := 0; s < mixedPreloaded && k < mixedHistory; k++ {
			walks[s].next()
		}
	}
	for _, ev := range dm.sched {
		switch {
		case ev.kind == "write" && len(ls.writes) < ladderBatches:
			at := dm.t0.Add(ev.at)
			first := (ev.batch % (mixedSeries / mixedBatchRows)) * mixedBatchRows
			var rows []measuredb.Point
			for s := first; s < first+mixedBatchRows; s++ {
				key := dm.f.key(s)
				rows = append(rows, measuredb.Point{Device: key.Device, Quantity: key.Quantity, At: at, Value: walks[s].next()})
			}
			ls.writes = append(ls.writes, rows)
		case ev.kind == "read" && len(ls.queries) < ladderQueries:
			op := readOp{key: dm.f.key(ev.s), from: dm.t0.Add(-15 * time.Minute), to: dm.t0}
			op.kind = [3]string{"latest", "page", "aggregate"}[ev.arg]
			if op.kind == "page" {
				op.limit = mixedPageLimit
			}
			ls.queries = append(ls.queries, op)
		}
	}
	ls.load = func(put func([]tsdb.Row) error) error {
		for s := 0; s < mixedPreloaded; s++ {
			key := dm.f.key(s)
			rows := make([]tsdb.Row, mixedHistory)
			for k, smp := range dm.acked[s][:mixedHistory] {
				rows[k] = tsdb.Row{Key: key, Sample: tsdb.Sample{At: smp.at, Value: smp.v}}
			}
			if err := put(rows); err != nil {
				return err
			}
		}
		return nil
	}
	return ls
}

func (dm *districtMixed) close() {
	if dm.sub != nil {
		dm.sub.Close()
		<-dm.subDone
	}
	if dm.dep != nil {
		dm.dep.close()
	}
}
