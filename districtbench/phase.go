package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// maxErrs bounds how many failure messages a phase keeps for the report.
const maxErrs = 5

// phaseStats collects one phase's outcomes. Workload goroutines record
// into it concurrently.
type phaseStats struct {
	mu        sync.Mutex
	attempted int
	failed    int
	errs      []string
	rows      int64       // acked rows
	queries   int         // correct queries
	ops       Dist        // every operation (open loop: from its due time)
	done      []time.Time // completion time of each ops sample, in order
	writes    Dist
	reads     Dist
	area      Dist
	fresh     Dist // batch due time → SSE delivery of its last row
	late      Dist // open loop: start − due
	poll      Dist // device-proxy PollOnce duration
	elapsed   time.Duration
}

func (st *phaseStats) failLocked(err error) {
	st.failed++
	if len(st.errs) < maxErrs {
		st.errs = append(st.errs, err.Error())
	}
}

// write records one write batch.
func (st *phaseStats) write(lat time.Duration, rows int, err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.attempted++
	st.op(lat)
	st.writes.Add(lat)
	if err != nil {
		st.failLocked(err)
		return
	}
	st.rows += int64(rows)
}

// read records one query; err covers transport failures and oracle
// mismatches alike.
func (st *phaseStats) read(lat time.Duration, err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.attempted++
	st.op(lat)
	st.reads.Add(lat)
	if err != nil {
		st.failLocked(err)
		return
	}
	st.queries++
}

// areaModel records one BuildAreaModel.
func (st *phaseStats) areaModel(lat time.Duration, err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.attempted++
	st.op(lat)
	st.area.Add(lat)
	if err != nil {
		st.failLocked(err)
	}
}

// polled records one device-proxy poll cycle.
func (st *phaseStats) polled(lat, took time.Duration) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.attempted++
	st.op(lat)
	st.poll.Add(took)
}

// fail records a failure outside any single operation (for example a
// delivery check).
func (st *phaseStats) fail(err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.attempted++
	st.failLocked(err)
}

func (st *phaseStats) op(lat time.Duration) {
	st.ops.Add(lat)
	st.done = append(st.done, time.Now())
}

// windowedPercentile splits the phase from start into windows of width
// w by completion time, takes the p-th percentile of each window's
// operation latencies, and returns the median over the windows. A stall
// of the host that covers a minority of the windows leaves it unmoved.
func (st *phaseStats) windowedPercentile(start time.Time, w time.Duration, p float64) float64 {
	n := int(st.elapsed / w)
	wins := make([][]float64, max(n, 1))
	for i, t := range st.done {
		if k := int(t.Sub(start) / w); k >= 0 && k < len(wins) {
			wins[k] = append(wins[k], st.ops.ms[i])
		}
	}
	var per []float64
	for _, l := range wins {
		if len(l) > 0 {
			sort.Float64s(l)
			per = append(per, l[max(int(math.Ceil(p/100*float64(len(l))))-1, 0)])
		}
	}
	return median(per)
}
