package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/measuredb"
)

var testT0 = time.Date(2026, 1, 2, 3, 4, 0, 0, time.UTC)

// inputs renders every input a workload would send for a seed, with
// timestamps as offsets from a fixed run start.
func inputs(seed int64) string {
	out := ""
	ic := newIngestCluster(seed)
	ic.t0 = testT0
	for i := 0; i < 6; i++ {
		rows, _, key := ic.nextBatch(ic.writers[i%ingestWriters])
		out += fmt.Sprintf("%s %v\n", key, rows)
	}
	rc := newReadCluster(seed)
	rc.t0 = testT0
	for k := 0; k < readSamples; k++ {
		rc.ts = append(rc.ts, testT0.Add(-48*time.Hour+time.Duration(k)*readStep+30*time.Second))
	}
	for i := 0; i < 200; i++ {
		out += fmt.Sprintf("%+v\n", rc.nextOp(i%readReaders))
	}
	out += fmt.Sprintf("%v\n", rc.vals[7][:50])
	out += fmt.Sprintf("%+v\n", schedule(seed, 5*time.Second, 64))
	return out
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b := inputs(42), inputs(42)
	if a != b {
		t.Fatal("the same seed produced different inputs")
	}
	if a == inputs(43) {
		t.Fatal("different seeds produced identical inputs")
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	var d Dist
	for i := 1; i <= 100; i++ {
		d.Add(time.Duration(i) * time.Millisecond)
	}
	if v, err := d.Percentile(90); err != nil || v != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90", v, err)
	}
	if _, err := d.Percentile(99); err == nil {
		t.Fatal("p99 of 100 samples has 1 beyond it and must be refused")
	}
	if _, err := d.Percentile(91); err == nil {
		t.Fatal("p91 of 100 samples has 9 beyond it and must be refused")
	}
	for i := 101; i <= 1000; i++ {
		d.Add(time.Duration(i) * time.Millisecond)
	}
	if v, err := d.Percentile(99); err != nil || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990", v, err)
	}
	var empty Dist
	if _, err := empty.Percentile(50); err == nil {
		t.Fatal("a percentile of no samples must be refused")
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	at := func(ms int) time.Time { return testT0.Add(time.Duration(ms) * time.Millisecond) }
	iv := func(a, b int) interval { return interval{at(a), at(b)} }
	parent := iv(0, 100)
	children := []interval{iv(10, 30), iv(20, 50), iv(60, 70), iv(90, 120), iv(-5, 2)}
	// Covered inside the parent: [0,2] [10,50] [60,70] [90,100] = 62 ms.
	if got := selfTime(parent, children); got != 38*time.Millisecond {
		t.Fatalf("self time = %v, want 38ms", got)
	}
	if got := unionLen([]interval{iv(0, 10), iv(10, 20), iv(5, 15)}); got != 20*time.Millisecond {
		t.Fatalf("union = %v, want 20ms", got)
	}
	if got := selfTime(parent, nil); got != 100*time.Millisecond {
		t.Fatalf("self time without children = %v, want 100ms", got)
	}
}

func TestOracleRejectsWrongAnswers(t *testing.T) {
	ts := []time.Time{testT0, testT0.Add(time.Minute), testT0.Add(time.Hour)}
	vs := []float64{1.25, 2.5, -0.75}
	want := aggOf(ts, vs)
	good := measuredb.AggregateResponse{Count: 3, Sum: 3, Min: -0.75, Max: 2.5}
	if err := checkAgg("agg", good, want); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []measuredb.AggregateResponse{
		{Count: 2, Sum: 3, Min: -0.75, Max: 2.5},
		{Count: 3, Sum: 3.25, Min: -0.75, Max: 2.5},
		{Count: 3, Sum: 3, Min: -0.5, Max: 2.5},
	} {
		if checkAgg("agg", bad, want) == nil {
			t.Fatalf("checkAgg accepted %+v", bad)
		}
	}
	pts := []measuredb.Point{{At: ts[0], Value: 1.25}, {At: ts[1], Value: 2.5}, {At: ts[2], Value: -0.75}}
	if err := checkPoints("pts", pts, ts, vs); err != nil {
		t.Fatal(err)
	}
	pts[1].Value = 2.75
	if checkPoints("pts", pts, ts, vs) == nil {
		t.Fatal("checkPoints accepted a wrong value")
	}
	buckets := bucketsOf(ts, vs, testT0.Add(-time.Minute), time.Hour)
	if len(buckets) != 2 || buckets[0].Count != 2 || buckets[1].Count != 1 || !buckets[0].Start.Equal(testT0.Add(-time.Minute)) {
		t.Fatalf("buckets = %+v", buckets)
	}
	if checkBuckets("b", buckets[:1], buckets) == nil {
		t.Fatal("checkBuckets accepted a missing bucket")
	}
}

// TestTinyRuns deploys each workload, drives it briefly with the oracle
// on, and runs its post-run checks (durability, SSE delivery).
func TestTinyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("deploys full districts")
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			w, err := newWorkload(name, 3, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer w.close()
			if err := w.setup(ctx, t.TempDir()); err != nil {
				t.Fatal(err)
			}
			st := &phaseStats{}
			w.run(ctx, time.Second, nil, st)
			if err := w.verify(ctx); err != nil {
				t.Fatal(err)
			}
			if st.attempted == 0 || st.failed != 0 {
				t.Fatalf("%d of %d operations failed: %v", st.failed, st.attempted, st.errs)
			}
		})
	}
}

// TestTracedRun runs the traced measurement end to end and checks that
// it reports every per-layer metric.
func TestTracedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("deploys a full cluster")
	}
	res, err := run(t.TempDir(), "ingest-cluster", 5, time.Second, true)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("traced run failed %d of %d operations", res.Failed, res.Attempted)
	}
	for name := range perLayerUnits {
		if _, ok := res.Metrics[name]; !ok {
			t.Errorf("per-layer metric %s missing", name)
		}
	}
	if len(res.Metrics) != len(perLayerUnits) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(perLayerUnits))
	}
	for _, name := range []string{"client.self_us_per_batch", "coord.self_us_per_row", "node.rt_us_per_row", "tsdb.append_ns_per_row", "ladder.sdk.row_us"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0 on ingest-cluster", name, res.Metrics[name].Value)
		}
	}
}

func TestCommitOfReadsGitFiles(t *testing.T) {
	root := t.TempDir()
	if got := commitOf(root); got != "unknown" {
		t.Fatalf("commit of a plain tree = %q, want unknown", got)
	}
	git := filepath.Join(root, ".git")
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(os.MkdirAll(filepath.Join(git, "refs", "heads"), 0o755))
	must(os.WriteFile(filepath.Join(git, "HEAD"), []byte("ref: refs/heads/main\n"), 0o644))
	must(os.WriteFile(filepath.Join(git, "packed-refs"), []byte("# pack-refs\nabc123 refs/heads/main\n"), 0o644))
	if got := commitOf(root); got != "abc123" {
		t.Fatalf("packed ref = %q, want abc123", got)
	}
	must(os.WriteFile(filepath.Join(git, "refs", "heads", "main"), []byte("def456\n"), 0o644))
	if got := commitOf(root); got != "def456" {
		t.Fatalf("loose ref = %q, want def456", got)
	}
	must(os.WriteFile(filepath.Join(git, "HEAD"), []byte("0123abcd\n"), 0o644))
	if got := commitOf(root); got != "0123abcd" {
		t.Fatalf("detached HEAD = %q, want 0123abcd", got)
	}
}

func TestWindowedPercentileIgnoresAStalledWindow(t *testing.T) {
	st := &phaseStats{elapsed: 3 * time.Second}
	for w, base := range []int{0, 100, 0} {
		for i := 1; i <= 10; i++ {
			st.ops.Add(time.Duration(base+i) * time.Millisecond)
			st.done = append(st.done, testT0.Add(time.Duration(w)*time.Second+time.Duration(i)*time.Millisecond))
		}
	}
	if got := st.windowedPercentile(testT0, time.Second, 50); got != 5 {
		t.Fatalf("windowed p50 = %v, want 5 (the stalled window is outvoted)", got)
	}
	if got := st.windowedPercentile(testT0, time.Second, 90); got != 9 {
		t.Fatalf("windowed p90 = %v, want 9", got)
	}
}
