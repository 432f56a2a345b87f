// Command districtbench is the repository's end-to-end benchmark. It
// deploys the district exactly as core.Bootstrap builds it, drives one
// named workload from a seed, checks every answer against an oracle
// built from the same seed, and prints the end-to-end metrics; with
// -trace 1 it instead runs the workload untraced and then traced and
// prints the per-layer metrics. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	bash districtbench/run.sh --workload read-cluster --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

const (
	// warmup lets caches fill and lazy set-up finish before timing.
	warmup = 2 * time.Second
	// buildDir, under the checkout root, holds the binary, the Go build
	// cache and every run's data directories.
	buildDir = ".bench_build"
)

type workload interface {
	name() string
	setup(ctx context.Context, dir string) error
	run(ctx context.Context, d time.Duration, tr *tracer, st *phaseStats)
	verify(ctx context.Context) error
	deployment() *deployment
	ackedRows() int64
	ladder() ladderSample
	close()
}

// setups is how many times a run builds its deployment: setup_s is the
// median, and the last build is the one measured. Cheap set-ups repeat
// more often so their median stays steady.
var setups = map[string]int{"ingest-cluster": 25, "read-cluster": 3, "district-mixed": 5}

var workloadNames = []string{"ingest-cluster", "read-cluster", "district-mixed"}

func newWorkload(name string, seed int64, seconds time.Duration) (workload, error) {
	switch name {
	case "ingest-cluster":
		return newIngestCluster(seed), nil
	case "read-cluster":
		return newReadCluster(seed), nil
	case "district-mixed":
		// Warm-up, the untraced phase and the traced phase.
		return newDistrictMixed(seed, warmup+2*seconds), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	root := flag.String("root", ".", "checkout root; data and build files go under <root>/"+buildDir)
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer measurement")
	flag.Parse()
	res, err := run(*root, *name, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err == nil {
		var out []byte
		if out, err = json.Marshal(res); err == nil {
			fmt.Println(string(out))
			if !res.Correct {
				err = fmt.Errorf("run failed its checks (%d of %d operations failed)", res.Failed, res.Attempted)
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "districtbench:", err)
		os.Exit(1)
	}
}

// run deploys and drives one workload and returns the result line.
func run(root, name string, seed int64, seconds time.Duration, traced bool) (result, error) {
	if seconds <= 0 {
		return result{}, fmt.Errorf("seconds must be positive")
	}
	if _, err := newWorkload(name, seed, seconds); err != nil {
		return result{}, err
	}
	runDir := filepath.Join(root, buildDir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return result{}, err
	}
	defer os.RemoveAll(runDir)
	ctx := context.Background()
	printRecord(root, name, seed)

	// Set up several times; the median is setup_s and the last build
	// is measured.
	var w workload
	var setupS []float64
	n := setups[name]
	if traced {
		n = 1
	}
	for i := 0; i < n; i++ {
		w, _ = newWorkload(name, seed, seconds)
		dir, err := freshDir(runDir, fmt.Sprintf("setup-%d", i))
		if err != nil {
			return result{}, err
		}
		// Collect the previous build's garbage first, so no set-up
		// pays for its predecessor.
		runtime.GC()
		start := time.Now()
		err = w.setup(ctx, dir)
		setupS = append(setupS, time.Since(start).Seconds())
		if err != nil {
			w.close()
			return result{}, fmt.Errorf("setup: %w", err)
		}
		if i < n-1 {
			w.close()
			os.RemoveAll(dir)
		}
	}
	defer func() { w.close() }()

	warm := &phaseStats{}
	w.run(ctx, warmup, nil, warm)
	if traced {
		return tracedRun(ctx, runDir, w, seconds, warm)
	}
	return measuredRun(ctx, w, seconds, warm, median(setupS))
}

// printRecord prints the run record: what ran, where, on which code.
func printRecord(root, name string, seed int64) {
	cpu := "unknown"
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	fmt.Printf("# record workload=%s seed=%d commit=%s nproc=%d GOMAXPROCS=%d go=%s cpu=%q\n",
		name, seed, commitOf(root), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpu)
}

// commitOf reads the checked-out commit from root/.git, or reports
// "unknown" (a plain source tree has none).
func commitOf(root string) string {
	gitDir := filepath.Join(root, ".git")
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(gitDir, ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, _ := os.ReadFile(filepath.Join(gitDir, "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}

// report prints one metric line with its sample count, or the reason it
// is refused.
func report(name, unit string, v float64, n int, err error) {
	if err != nil {
		fmt.Printf("# metric %s refused: %v\n", name, err)
		return
	}
	fmt.Printf("# metric %s = %.6g %s (n=%d)\n", name, v, unit, n)
}

// measuredRun is the untraced run: it measures the workload for the
// given time and prints the end-to-end metrics.
func measuredRun(ctx context.Context, w workload, seconds time.Duration, warm *phaseStats, setupS float64) (result, error) {
	st := &phaseStats{}
	cpu0 := processCPU()
	start := time.Now()
	w.run(ctx, seconds, nil, st)
	st.elapsed = time.Since(start)
	cpuMS := float64(processCPU()-cpu0) / float64(time.Millisecond)
	heap := liveHeapMiB()

	dep := w.deployment()
	if err := dep.compact(ctx); err != nil {
		st.fail(err)
	}
	disk, blocks, err := diskBytes(dep.spec.DataDir)
	if err != nil {
		return result{}, err
	}
	diskPerRow := float64(disk) / float64(w.ackedRows())
	blocksPerRow := float64(blocks) / float64(w.ackedRows())
	vstart := time.Now()
	if err := w.verify(ctx); err != nil {
		st.fail(err)
	}
	fmt.Printf("# verify took %.3g s\n", time.Since(vstart).Seconds())
	secs := st.elapsed.Seconds()

	// The full set of end-to-end figures, as they apply to the workload.
	report("setup_s", "s", setupS, setups[w.name()], nil)
	if st.writes.N() > 0 {
		report("rows_per_s", "rows/s", float64(st.rows)/secs, st.writes.N(), nil)
		reportDist("write_ms", &st.writes, 50, 99)
	}
	report("disk_bytes_per_row", "B", diskPerRow, 1, nil)
	report("block_bytes_per_row", "B", blocksPerRow, 1, nil)
	if st.reads.N() > 0 {
		report("queries_per_s", "1/s", float64(st.queries)/secs, st.reads.N(), nil)
		reportDist("read_ms", &st.reads, 50, 99)
	}
	if st.fresh.N() > 0 {
		reportDist("fresh_ms", &st.fresh, 50, 90)
	}
	if st.area.N() > 0 {
		reportDist("area_ms", &st.area, 50, 90)
	}
	report("heap_mb", "MiB", heap, 1, nil)
	attempted, failed := st.attempted+warm.attempted, st.failed+warm.failed
	report("error_ratio", "ratio", float64(failed)/float64(max(attempted, 1)), attempted, nil)
	valid := true
	if st.late.N() > 0 {
		late, ok := lateness(&st.late)
		if !ok {
			fmt.Printf("# invalid: the generator fell behind its schedule (late %.3g ms > %v)\n", late, maxLateP99)
			valid = false
		}
	}
	for _, e := range append(warm.errs, st.errs...) {
		fmt.Printf("# error %s\n", e)
	}

	// The gated figures: defined on every workload, never zero, and
	// steady from run to run on a shared 2-vCPU host. Operation latency
	// is not among them: on the open-loop workload it swings up to 4×
	// between runs minutes apart while the CPU spent per operation stays
	// within 5% (see METRICS.md). The latency percentiles, whole-run and
	// as medians over one-second windows, are on the report lines.
	cpuPerOp := cpuMS / float64(max(st.ops.N(), 1))
	res := result{
		Correct:   valid && failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics: map[string]metric{
			"setup_s":             {setupS, "s"},
			"ops_per_s":           {float64(st.ops.N()) / secs, "1/s"},
			"cpu_ms_per_op":       {cpuPerOp, "ms"},
			"heap_mb":             {heap, "MiB"},
			"block_bytes_per_row": {blocksPerRow, "B"},
		},
	}
	report("ops_per_s", "1/s", res.Metrics["ops_per_s"].Value, st.ops.N(), nil)
	report("cpu_ms_per_op", "ms", cpuPerOp, st.ops.N(), nil)
	reportDist("op_ms", &st.ops, 50, 90)
	report("op_ms_p50 (median of 1 s windows)", "ms", st.windowedPercentile(start, time.Second, 50), st.ops.N(), nil)
	report("op_ms_p90 (median of 1 s windows)", "ms", st.windowedPercentile(start, time.Second, 90), st.ops.N(), nil)
	return res, nil
}

// lateness reports how far behind schedule an open-loop generator ran:
// p99 of start − due (p90 when too few samples lie beyond p99), and
// whether it stayed within maxLateP99.
func lateness(d *Dist) (float64, bool) {
	late, err := d.Percentile(99)
	name := "late_ms_p99"
	if err != nil {
		late, err = d.Percentile(90)
		name = "late_ms_p90"
	}
	report(name, "ms", late, d.N(), err)
	return late, err == nil && late <= float64(maxLateP99)/float64(time.Millisecond)
}

func reportDist(prefix string, d *Dist, ps ...float64) {
	for _, p := range ps {
		v, err := d.Percentile(p)
		report(fmt.Sprintf("%s_p%g", prefix, p), "ms", v, d.N(), err)
	}
}

// tracedRun runs the workload untraced and then traced for the same
// time, and prints the per-layer metrics.
func tracedRun(ctx context.Context, runDir string, w workload, seconds time.Duration, warm *phaseStats) (result, error) {
	dep := w.deployment()
	plain := &phaseStats{}
	start := time.Now()
	w.run(ctx, seconds, nil, plain)
	plain.elapsed = time.Since(start)

	services := append([]string{}, dep.nodes...)
	if dep.coord != "" {
		services = append(services, dep.coord)
	}
	before := scrape(ctx, dep, services)
	gauges := sampleGauges(ctx, dep)
	proc0 := readProc()
	tr := startTracing()
	st := &phaseStats{}
	start = time.Now()
	w.run(ctx, seconds, tr, st)
	st.elapsed = time.Since(start)
	tr.stop()
	proc1 := readProc()
	gauges.close()
	after := scrape(ctx, dep, services)

	in := layerInput{
		ops: tr.ops, before: before, after: after, gauges: gauges,
		stages: fetchStages(ctx, dep, tr.ops, 64), proc0: proc0, proc1: proc1,
		pollUS:        st.poll.Mean() * 1000,
		untracedOpsPS: float64(plain.ops.N()) / plain.elapsed.Seconds(),
		tracedOpsPS:   float64(st.ops.N()) / st.elapsed.Seconds(),
		storedRows:    w.ackedRows(),
		nodeHosts:     map[string]bool{},
		coordHost:     host(dep.coord),
		masterHost:    host(dep.d.MasterURL),
		entryHost:     host(dep.measure),
	}
	for _, n := range dep.nodes {
		in.nodeHosts[host(n)] = true
	}
	m := layerMetrics(in)
	ladderDir, err := freshDir(runDir, "ladder")
	if err != nil {
		return result{}, err
	}
	lm, err := runLadder(ctx, ladderDir, dep, w.ladder())
	if err != nil {
		st.fail(err)
	}
	for k, v := range lm {
		m[k] = v
	}
	if err := w.verify(ctx); err != nil {
		st.fail(err)
	}
	attempted := warm.attempted + plain.attempted + st.attempted
	failed := warm.failed + plain.failed + st.failed
	for _, e := range append(append(warm.errs, plain.errs...), st.errs...) {
		fmt.Printf("# error %s\n", e)
	}
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	names := make([]string, 0, len(perLayerUnits))
	for name := range perLayerUnits {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := m[name]
		res.Metrics[name] = metric{v, perLayerUnits[name]}
		fmt.Printf("# layer %s = %.6g %s\n", name, v, perLayerUnits[name])
	}
	return res, nil
}

// perLayerUnits lists every per-layer metric with its unit.
var perLayerUnits = map[string]string{
	"client.self_us_per_batch":    "us",
	"client.self_us_per_query":    "us",
	"api.req_bytes_per_row":       "B",
	"api.resp_bytes_per_query":    "B",
	"api.hops_per_op":             "count",
	"coord.self_us_per_row":       "us",
	"coord.hop_bytes_per_row":     "B",
	"coord.self_ms_per_query":     "ms",
	"coord.fanout_hops_per_query": "count",
	"coord.retries":               "count",
	"node.rt_us_per_row":          "us",
	"node.rt_ms_per_query":        "ms",
	"node.stage.dedup-claim_us":   "us",
	"node.stage.wal-append_us":    "us",
	"node.stage.store-apply_us":   "us",
	"node.stage.hub-publish_us":   "us",
	"tsdb.append_ns_per_row":      "ns",
	"tsdb.latest_us":              "us",
	"tsdb.page_us":                "us",
	"tsdb.stream_us":              "us",
	"tsdb.aggregate_us":           "us",
	"tsdb.downsample_us":          "us",
	"tsdb.block_read_share":       "ratio",
	"tsdb.queue_depth_max":        "count",
	"tsdb.commit_group_rows":      "count",
	"wal.append_us_p50":           "us",
	"block.compactions":           "count",
	"block.compaction_ms_max":     "ms",
	"block.bytes_per_row":         "B",
	"qcache.hit_ratio":            "ratio",
	"qcache.evictions":            "count",
	"stream.delivered":            "count",
	"stream.evicted":              "count",
	"stream.queue_depth_max":      "count",
	"master.query_ms":             "ms",
	"dbproxy.fetch_ms":            "ms",
	"integration.merge_ms":        "ms",
	"deviceproxy.poll_us":         "us",
	"go.gc_cycles":                "count",
	"go.gc_pause_ms_total":        "ms",
	"trace.overhead_ratio":        "ratio",
	"ladder.engine.row_us":        "us",
	"ladder.engine.query_us":      "us",
	"ladder.handler.row_us":       "us",
	"ladder.handler.query_us":     "us",
	"ladder.node.row_us":          "us",
	"ladder.node.query_us":        "us",
	"ladder.coord.row_us":         "us",
	"ladder.coord.query_us":       "us",
	"ladder.sdk.row_us":           "us",
	"ladder.sdk.query_us":         "us",
}
