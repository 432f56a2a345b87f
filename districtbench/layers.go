package main

import (
	"context"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// scrape reads the /v1/metrics instruments of the given services.
func scrape(ctx context.Context, dep *deployment, urls []string) []obs.Snapshot {
	var out []obs.Snapshot
	for _, u := range urls {
		snap, err := dep.c.Ops(u).Metrics(ctx)
		if err != nil {
			continue // a missing scrape reads as zero deltas
		}
		out = append(out, snap.Instruments...)
	}
	return out
}

// sumOf adds up every instrument value of a name whose labels contain
// the given pairs.
func sumOf(snaps []obs.Snapshot, name string, labels ...string) float64 {
	total := 0.0
	for _, s := range snaps {
		if s.Name == name && hasLabels(s.Labels, labels) {
			total += s.Value
		}
	}
	return total
}

func maxOf(snaps []obs.Snapshot, name string) float64 {
	m := 0.0
	for _, s := range snaps {
		if s.Name == name && s.Value > m {
			m = s.Value
		}
	}
	return m
}

func hasLabels(l obs.Labels, pairs []string) bool {
	for i := 0; i+1 < len(pairs); i += 2 {
		if l[pairs[i]] != pairs[i+1] {
			return false
		}
	}
	return true
}

// histOf merges every histogram of a name (all shards, all services).
func histOf(snaps []obs.Snapshot) func(name string) obs.HistogramSnapshot {
	return func(name string) obs.HistogramSnapshot {
		var h obs.HistogramSnapshot
		for _, s := range snaps {
			if s.Name != name || s.Histogram == nil {
				continue
			}
			if h.Counts == nil {
				h.Bounds = s.Histogram.Bounds
				h.Counts = make([]uint64, len(s.Histogram.Counts))
			}
			for i, c := range s.Histogram.Counts {
				if i < len(h.Counts) {
					h.Counts[i] += c
				}
			}
			h.Sum += s.Histogram.Sum
			h.Count += s.Histogram.Count
		}
		return h
	}
}

// histDelta subtracts an earlier reading of the same histogram.
func histDelta(after, before obs.HistogramSnapshot) obs.HistogramSnapshot {
	d := obs.HistogramSnapshot{Bounds: after.Bounds, Sum: after.Sum - before.Sum}
	for i, c := range after.Counts {
		if i < len(before.Counts) {
			c -= before.Counts[i]
		}
		d.Counts = append(d.Counts, c)
		d.Count += c
	}
	return d
}

// histMax returns the upper bound of the highest non-empty bucket.
func histMax(h obs.HistogramSnapshot) float64 {
	for i := len(h.Counts) - 1; i >= 0; i-- {
		if h.Counts[i] > 0 {
			return h.Bounds[min(i, len(h.Bounds)-1)]
		}
	}
	return 0
}

// gaugeSampler polls the nodes' queue gauges while a traced phase
// runs and keeps their maxima.
type gaugeSampler struct {
	stop     chan struct{}
	done     sync.WaitGroup
	queueMax float64
	sseMax   float64
}

func sampleGauges(ctx context.Context, dep *deployment) *gaugeSampler {
	g := &gaugeSampler{stop: make(chan struct{})}
	g.done.Add(1)
	go func() {
		defer g.done.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-g.stop:
				return
			case <-tick.C:
				snaps := scrape(ctx, dep, dep.nodes)
				g.queueMax = max(g.queueMax, maxOf(snaps, "repro_tsdb_queue_depth"))
				g.sseMax = max(g.sseMax, maxOf(snaps, "repro_stream_subscriber_queue_depth"))
			}
		}
	}()
	return g
}

func (g *gaugeSampler) close() {
	close(g.stop)
	g.done.Wait()
}

// layerInput is everything one traced phase measured.
type layerInput struct {
	ops           []opSpan
	before, after []obs.Snapshot
	stages        map[string]*stageAcc
	gauges        *gaugeSampler
	proc0, proc1  procStats
	pollUS        float64
	untracedOpsPS float64
	tracedOpsPS   float64
	storedRows    int64
	nodeHosts     map[string]bool
	coordHost     string
	masterHost    string
	entryHost     string
}

type stageAcc struct {
	ms    float64
	count int
}

// fetchStages reads the ingest stage timings the nodes retained for the
// most recent traced write operations.
func fetchStages(ctx context.Context, dep *deployment, ops []opSpan, limit int) map[string]*stageAcc {
	out := map[string]*stageAcc{}
	seen := 0
	for i := len(ops) - 1; i >= 0 && seen < limit; i-- {
		if ops[i].kind != "write" {
			continue
		}
		seen++
		for _, n := range dep.nodes {
			rsp, err := dep.c.Ops(n).Trace(ctx, ops[i].id)
			if err != nil {
				continue // evicted from the node's span ring
			}
			for _, sp := range rsp.Spans {
				if !strings.Contains(sp.Route, "ingest") {
					continue
				}
				for _, st := range sp.Stages {
					a := out[st.Name]
					if a == nil {
						a = &stageAcc{}
						out[st.Name] = a
					}
					a.ms += st.DurationMS
					a.count++
				}
			}
		}
	}
	return out
}

// layerMetrics turns a traced phase into the per-layer figures.
func layerMetrics(in layerInput) map[string]float64 {
	m := map[string]float64{}
	var (
		writes, reads, areas      int
		rows                      int
		clientSelfW, clientSelfR  time.Duration
		reqBytes, respBytes, hops int64
		coordSelfW, coordSelfR    time.Duration
		hopBytes, fanout          int64
		nodeW, nodeR              time.Duration
		masterT, proxyT, mergeT   time.Duration
	)
	for _, op := range in.ops {
		if !op.ok {
			continue
		}
		spans := spansOf(op.id)
		hops += int64(len(spans))
		var entry, node, master, model, all []interval
		var entryReq, entryResp, nodeReq int64
		nodeHops := 0
		for _, sp := range spans {
			all = append(all, sp.iv)
			switch {
			case sp.host == in.entryHost:
				entry = append(entry, sp.iv)
				entryReq += sp.reqBytes
				entryResp += sp.respBytes
			case sp.host == in.masterHost:
				master = append(master, sp.iv)
			case strings.HasSuffix(sp.path, "/model") || strings.HasSuffix(sp.path, "/features"):
				// GIS, BIM and SIM proxy fetches.
				model = append(model, sp.iv)
			}
			// In a cluster the entry is the coordinator and these are
			// its hops to the owners; on one node the entry is the node.
			if in.coordHost != "" && in.nodeHosts[sp.host] {
				node = append(node, sp.iv)
				nodeReq += sp.reqBytes
				nodeHops++
			}
		}
		// The coordinator's self time is each entry span minus the
		// owner hops it caused.
		var coordSelf time.Duration
		for _, e := range entry {
			coordSelf += selfTime(e, node)
		}
		entryLen, nodeLen := unionLen(entry), unionLen(node)
		switch op.kind {
		case "write":
			writes++
			rows += op.rows
			clientSelfW += selfTime(op.iv, entry)
			reqBytes += entryReq
			if in.coordHost != "" {
				coordSelfW += coordSelf
				hopBytes += nodeReq
				nodeW += nodeLen
			} else {
				nodeW += entryLen
			}
		case "read":
			reads++
			clientSelfR += selfTime(op.iv, entry)
			respBytes += entryResp
			if in.coordHost != "" {
				coordSelfR += coordSelf
				fanout += int64(nodeHops)
				nodeR += nodeLen
			} else {
				nodeR += entryLen
			}
		case "area":
			areas++
			masterT += unionLen(master)
			proxyT += unionLen(model)
			mergeT += selfTime(op.iv, all)
		}
	}
	us := func(d time.Duration, n int) float64 {
		if n == 0 {
			return 0
		}
		return float64(d) / float64(time.Microsecond) / float64(n)
	}
	ms := func(d time.Duration, n int) float64 { return us(d, n) / 1000 }
	per := func(v int64, n int) float64 {
		if n == 0 {
			return 0
		}
		return float64(v) / float64(n)
	}
	m["client.self_us_per_batch"] = us(clientSelfW, writes)
	m["client.self_us_per_query"] = us(clientSelfR, reads)
	m["api.req_bytes_per_row"] = per(reqBytes, rows)
	m["api.resp_bytes_per_query"] = per(respBytes, reads)
	m["api.hops_per_op"] = per(hops, writes+reads+areas)
	m["coord.self_us_per_row"] = us(coordSelfW, rows)
	m["coord.hop_bytes_per_row"] = per(hopBytes, rows)
	m["coord.self_ms_per_query"] = ms(coordSelfR, reads)
	m["coord.fanout_hops_per_query"] = per(fanout, reads)
	m["node.rt_us_per_row"] = us(nodeW, rows)
	m["node.rt_ms_per_query"] = ms(nodeR, reads)
	m["master.query_ms"] = ms(masterT, areas)
	m["dbproxy.fetch_ms"] = ms(proxyT, areas)
	m["integration.merge_ms"] = ms(mergeT, areas)

	for _, name := range []string{"dedup-claim", "wal-append", "store-apply", "hub-publish"} {
		v := 0.0
		if a := in.stages[name]; a != nil && a.count > 0 {
			v = a.ms * 1000 / float64(a.count)
		}
		m["node.stage."+name+"_us"] = v
	}

	delta := func(name string, labels ...string) float64 {
		return sumOf(in.after, name, labels...) - sumOf(in.before, name, labels...)
	}
	hA, hB := histOf(in.after), histOf(in.before)
	hd := func(name string) obs.HistogramSnapshot { return histDelta(hA(name), hB(name)) }

	m["coord.retries"] = delta("repro_cluster_forward_retries_total")
	if blocks, total := delta("repro_tsdb_reads_total", "path", "blocks"), delta("repro_tsdb_reads_total"); total > 0 {
		m["tsdb.block_read_share"] = blocks / total
	} else {
		m["tsdb.block_read_share"] = 0
	}
	m["tsdb.queue_depth_max"] = in.gauges.queueMax
	if g := hd("repro_tsdb_commit_group_rows"); g.Count > 0 {
		m["tsdb.commit_group_rows"] = g.Sum / float64(g.Count)
	} else {
		m["tsdb.commit_group_rows"] = 0
	}
	m["wal.append_us_p50"] = hd("repro_tsdb_wal_append_seconds").Quantile(0.5) * 1e6
	comp := hd("repro_tsdb_block_compaction_seconds")
	m["block.compactions"] = float64(comp.Count)
	m["block.compaction_ms_max"] = histMax(comp) * 1000
	if in.storedRows > 0 {
		m["block.bytes_per_row"] = sumOf(in.after, "repro_tsdb_block_bytes") / float64(in.storedRows)
	} else {
		m["block.bytes_per_row"] = 0
	}
	hits, misses := delta("repro_qcache_hits_total"), delta("repro_qcache_misses_total")
	if hits+misses > 0 {
		m["qcache.hit_ratio"] = hits / (hits + misses)
	} else {
		m["qcache.hit_ratio"] = 0
	}
	m["qcache.evictions"] = delta("repro_qcache_evictions_total")
	m["stream.delivered"] = delta("repro_stream_delivered_total")
	m["stream.evicted"] = delta("repro_stream_evicted_total")
	m["stream.queue_depth_max"] = in.gauges.sseMax
	m["deviceproxy.poll_us"] = in.pollUS
	m["go.gc_cycles"] = float64(in.proc1.gcCycles - in.proc0.gcCycles)
	m["go.gc_pause_ms_total"] = float64(in.proc1.pauseNS-in.proc0.pauseNS) / 1e6
	if in.untracedOpsPS > 0 {
		m["trace.overhead_ratio"] = in.tracedOpsPS / in.untracedOpsPS
	} else {
		m["trace.overhead_ratio"] = 0
	}
	return m
}
