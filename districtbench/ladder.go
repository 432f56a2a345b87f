package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/client"
	"repro/internal/measuredb"
	"repro/internal/tsdb"
	"repro/internal/wal"
)

// The ladder replays a fixed sample of the workload's own operations at
// each layer's public entry point, one rung at a time:
//
//	engine   tsdb.Engine methods on a fresh tsdb.OpenSharded
//	handler  measuredb.Service.Handler().ServeHTTP, in process
//	node     a single node over loopback HTTP
//	coord    the deployment's coordinator over HTTP (clusters only)
//	sdk      the client SDK against the deployment
//
// Writes at each rung go to their own device namespace so the rungs
// never collide with each other or with the workload's series.

const (
	ladderBatches = 16
	ladderQueries = 64
)

// ladderSample is what a workload hands the ladder.
type ladderSample struct {
	writes  [][]measuredb.Point
	queries []readOp
	// load feeds the data the queries read, in chunks, into a store.
	load func(func([]tsdb.Row) error) error
}

type rungTimes struct {
	rowNS     float64 // per row
	queryUS   float64 // per query
	perKindUS map[string]float64
}

func rename(rows []measuredb.Point, rung string) []measuredb.Point {
	out := make([]measuredb.Point, len(rows))
	for i, p := range rows {
		p.Device = strings.Replace(p.Device, "urn:district:fleet/", "urn:district:ladder-"+rung+"/", 1)
		out[i] = p
	}
	return out
}

func toRows(pts []measuredb.Point) []tsdb.Row {
	rows := make([]tsdb.Row, len(pts))
	for i, p := range pts {
		rows[i] = tsdb.Row{Key: tsdb.SeriesKey{Device: p.Device, Quantity: p.Quantity}, Sample: tsdb.Sample{At: p.At, Value: p.Value}}
	}
	return rows
}

// runLadder measures every rung and returns the per-layer figures.
func runLadder(ctx context.Context, dir string, dep *deployment, ls ladderSample) (map[string]float64, error) {
	out := map[string]float64{}
	put := func(rung string, t rungTimes) {
		out["ladder."+rung+".row_us"] = t.rowNS / 1000
		out["ladder."+rung+".query_us"] = t.queryUS
	}

	// Engine rung.
	eng, err := tsdb.OpenSharded(tsdb.ShardedOptions{Shards: 8, Dir: filepath.Join(dir, "engine"), Fsync: wal.FsyncNone})
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	if err := loadInto(eng, ls); err != nil {
		return nil, err
	}
	et, err := engineRung(eng, ls)
	if err != nil {
		return nil, err
	}
	out["tsdb.append_ns_per_row"] = et.rowNS
	for _, k := range []string{"latest", "page", "stream", "aggregate", "downsample"} {
		out["tsdb."+k+"_us"] = et.perKindUS[k]
	}
	put("engine", et)

	// Handler and node rungs share one fresh single-node service.
	svc, err := measuredb.Open(measuredb.Options{
		DataDir: filepath.Join(dir, "service"), Fsync: wal.FsyncNone, Shards: 8,
		QCacheBytes: qcacheBytes, DisableLegacyAliases: true,
	})
	if err != nil {
		return nil, err
	}
	defer svc.Close()
	if err := loadInto(svc.Store(), ls); err != nil {
		return nil, err
	}
	h := svc.Handler()
	ht, err := httpRung(ctx, ls, "handler", func(req *http.Request) (int, error) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code, nil
	}, "http://in-process")
	if err != nil {
		return nil, err
	}
	put("handler", ht)
	addr, err := svc.Serve("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	nt, err := httpRung(ctx, ls, "node", doHTTP, "http://"+addr)
	if err != nil {
		return nil, err
	}
	put("node", nt)

	if dep.coord != "" {
		ct, err := httpRung(ctx, ls, "coord", doHTTP, dep.coord)
		if err != nil {
			return nil, err
		}
		put("coord", ct)
	} else {
		put("coord", rungTimes{})
	}
	st, err := sdkRung(ctx, dep, ls)
	if err != nil {
		return nil, err
	}
	put("sdk", st)
	return out, nil
}

// loadInto writes the sample's query data and compacts it, so the rung
// reads the same head/block split the deployment holds.
func loadInto(e tsdb.Engine, ls ladderSample) error {
	if ls.load == nil {
		return nil
	}
	err := ls.load(func(rows []tsdb.Row) error {
		for _, err := range e.AppendBatch(rows) {
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if sh, ok := e.(*tsdb.Sharded); ok {
		return sh.CompactAll()
	}
	return nil
}

func engineRung(eng *tsdb.Sharded, ls ladderSample) (rungTimes, error) {
	var t rungTimes
	rows := 0
	var took time.Duration
	for _, b := range ls.writes {
		r := toRows(rename(b, "engine"))
		start := time.Now()
		for _, err := range eng.AppendBatch(r) {
			if err != nil {
				return t, err
			}
		}
		took += time.Since(start)
		rows += len(r)
	}
	if rows > 0 {
		t.rowNS = float64(took) / float64(rows)
	}
	perKind := map[string]time.Duration{}
	count := map[string]int{}
	var all time.Duration
	for _, q := range ls.queries {
		start := time.Now()
		var err error
		switch q.kind {
		case "latest":
			_, err = eng.Latest(q.key)
		case "page":
			_, err = eng.QueryPage(q.key, q.from, q.to, tsdb.Cursor{}, max(q.limit, 1000))
		case "stream":
			it := eng.Iter(q.key, q.from, q.to, 0)
			for _, ok := it.Next(); ok; _, ok = it.Next() {
			}
			err = it.Err()
		case "aggregate":
			_, err = eng.Aggregate(q.key, q.from, q.to)
		case "downsample":
			_, err = eng.Downsample(q.key, q.from, q.to, time.Hour)
		case "batch":
			prefix := strings.TrimSuffix(q.glob, "*")
			for _, k := range eng.Keys() {
				if strings.HasPrefix(k.Device, prefix) {
					if _, err = eng.Aggregate(k, q.from, q.to); err != nil {
						break
					}
				}
			}
		}
		if err != nil {
			return t, fmt.Errorf("ladder engine %s: %w", q.kind, err)
		}
		d := time.Since(start)
		perKind[q.kind] += d
		count[q.kind]++
		all += d
	}
	t.perKindUS = map[string]float64{}
	for k, d := range perKind {
		t.perKindUS[k] = float64(d) / float64(time.Microsecond) / float64(count[k])
	}
	if len(ls.queries) > 0 {
		t.queryUS = float64(all) / float64(time.Microsecond) / float64(len(ls.queries))
	}
	return t, nil
}

// doHTTP sends a request over the pooled client and drains the reply.
func doHTTP(req *http.Request) (int, error) {
	rsp, err := sharedHTTP.Do(req)
	if err != nil {
		return 0, err
	}
	defer rsp.Body.Close()
	_, err = io.Copy(io.Discard, rsp.Body)
	return rsp.StatusCode, err
}

// queryRequest renders a query as the /v2 request a client would send.
func queryRequest(ctx context.Context, base string, q readOp) (*http.Request, error) {
	if q.kind == "batch" {
		body, err := json.Marshal(q.batchQuery())
		if err != nil {
			return nil, err
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, api.URL2(base, "/query"), bytes.NewReader(body))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
		}
		return req, err
	}
	v := url.Values{}
	if !q.from.IsZero() {
		v.Set("from", q.from.Format(time.RFC3339Nano))
		v.Set("to", q.to.Format(time.RFC3339Nano))
	}
	leaf, accept := "samples", "application/json"
	switch q.kind {
	case "latest":
		leaf = "latest"
	case "page":
		if q.limit > 0 {
			v.Set("limit", fmt.Sprint(q.limit))
		}
	case "stream":
		accept = measuredb.NDJSONType
	case "aggregate":
		leaf = "aggregate"
	case "downsample":
		leaf = "aggregate"
		v.Set("window", time.Hour.String())
	}
	u := api.URL2(base, "/series/"+url.PathEscape(q.key.Device)+"/"+url.PathEscape(q.key.Quantity)+"/"+leaf) + "?" + v.Encode()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err == nil {
		req.Header.Set("Accept", accept)
	}
	return req, err
}

// httpRung replays the sample as raw /v2 requests through send.
func httpRung(ctx context.Context, ls ladderSample, rung string, send func(*http.Request) (int, error), base string) (rungTimes, error) {
	var t rungTimes
	rows := 0
	var took time.Duration
	for i, b := range ls.writes {
		body, err := json.Marshal(measuredb.IngestBatch{Rows: rename(b, rung)})
		if err != nil {
			return t, err
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, api.URL2(base, "/ingest"), bytes.NewReader(body))
		if err != nil {
			return t, err
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("Idempotency-Key", fmt.Sprintf("ladder-%s-%d", rung, i))
		start := time.Now()
		code, err := send(req)
		took += time.Since(start)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("status %d", code)
		}
		if err != nil {
			return t, fmt.Errorf("ladder %s ingest: %w", rung, err)
		}
		rows += len(b)
	}
	if rows > 0 {
		t.rowNS = float64(took) / float64(rows)
	}
	took = 0
	for _, q := range ls.queries {
		req, err := queryRequest(ctx, base, q)
		if err != nil {
			return t, err
		}
		start := time.Now()
		code, err := send(req)
		took += time.Since(start)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("status %d", code)
		}
		if err != nil {
			return t, fmt.Errorf("ladder %s %s: %w", rung, q.kind, err)
		}
	}
	if len(ls.queries) > 0 {
		t.queryUS = float64(took) / float64(time.Microsecond) / float64(len(ls.queries))
	}
	return t, nil
}

// sdkRung replays the sample through the client SDK.
func sdkRung(ctx context.Context, dep *deployment, ls ladderSample) (rungTimes, error) {
	var t rungTimes
	g := dep.c.Ingest(dep.measure)
	rows := 0
	var took time.Duration
	for _, b := range ls.writes {
		r := rename(b, "sdk")
		start := time.Now()
		_, err := g.Append(ctx, r)
		took += time.Since(start)
		if err != nil {
			return t, fmt.Errorf("ladder sdk ingest: %w", err)
		}
		rows += len(r)
	}
	if rows > 0 {
		t.rowNS = float64(took) / float64(rows)
	}
	m := dep.c.Measurements(dep.measure)
	took = 0
	for _, q := range ls.queries {
		start := time.Now()
		var err error
		switch q.kind {
		case "latest":
			_, err = m.Latest(ctx, q.key.Device, q.key.Quantity)
		case "page":
			opts := []client.QueryOption{client.WithRange(q.from, q.to)}
			if q.limit > 0 {
				opts = append(opts, client.WithLimit(q.limit))
			}
			_, err = m.Samples(ctx, q.key.Device, q.key.Quantity, opts...)
		case "stream":
			_, err = streamAll(ctx, m, q)
		case "aggregate":
			_, err = m.Aggregate(ctx, q.key.Device, q.key.Quantity, client.WithRange(q.from, q.to))
		case "downsample":
			_, err = m.Downsample(ctx, q.key.Device, q.key.Quantity, time.Hour, client.WithRange(q.from, q.to))
		case "batch":
			_, err = m.Query(ctx, q.batchQuery())
		}
		took += time.Since(start)
		if err != nil {
			return t, fmt.Errorf("ladder sdk %s: %w", q.kind, err)
		}
	}
	if len(ls.queries) > 0 {
		t.queryUS = float64(took) / float64(time.Microsecond) / float64(len(ls.queries))
	}
	return t, nil
}
