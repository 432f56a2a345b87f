package main

import (
	"context"
	"fmt"
	"io/fs"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/block"
	"repro/internal/client"
	"repro/internal/core"
)

// qcacheBytes is the query result cache size, identical in every
// workload. read-cluster's distinct responses (~512 series × latest,
// page, aggregate and downsample, plus the glob batches) need a few MiB,
// so this size forces evictions there.
const qcacheBytes = 1 << 20

// deployment is one running district, built by core.Bootstrap exactly
// as districtsim builds it: master, middleware hub, GIS/BIM/SIM proxies,
// device proxies and a durable measurements DB (one node, or a
// coordinator over two nodes).
type deployment struct {
	spec core.Spec
	d    *core.District
	// measure is the URL clients write to and read from: the
	// coordinator in a cluster, the node otherwise.
	measure string
	nodes   []string
	coord   string // empty without a cluster
	c       *client.Client
}

func districtSpec(dir string, clustered bool, seed int64) core.Spec {
	spec := core.Spec{
		District:      "turin",
		DataDir:       dir,
		FsyncMode:     "none",
		MeasureShards: 8,
		QCacheBytes:   qcacheBytes,
		// Polling is driven by the benchmark (district-mixed) or absent
		// (cluster workloads), never by timers.
		PollEvery: time.Hour,
		Seed:      seed,
	}
	if clustered {
		spec.MeasureNodes = 2
	} else {
		spec.Buildings, spec.DevicesPerBuilding, spec.Networks = 16, 4, 2
	}
	return spec
}

func bootstrap(spec core.Spec) (*deployment, error) {
	d, err := core.Bootstrap(spec)
	if err != nil {
		return nil, err
	}
	dep := &deployment{spec: spec, d: d, measure: d.MeasureURL, c: benchClient(d.MasterURL)}
	if spec.MeasureNodes > 1 {
		dep.nodes = d.MeasureNodeURLs
		dep.coord = d.MeasureURL
	} else {
		dep.nodes = []string{d.MeasureURL}
	}
	return dep, nil
}

// benchClient is the SDK client every workload uses. It names the
// pooled shared HTTP client explicitly so that streamed reads ride the
// same (optionally timed) transport as every other request.
func benchClient(master string) *client.Client {
	return &client.Client{MasterURL: master, HTTP: sharedHTTP}
}

func (dep *deployment) close() { dep.d.Close() }

// reopen closes the deployment and boots it again on the same data
// directories.
func (dep *deployment) reopen() (*deployment, error) {
	dep.close()
	return bootstrap(dep.spec)
}

// compact forces a block compaction cycle on every shard of every node.
func (dep *deployment) compact(ctx context.Context) error {
	for _, n := range dep.nodes {
		if err := dep.c.Ops(n).Compact(ctx, -1); err != nil {
			return fmt.Errorf("compact %s: %w", n, err)
		}
	}
	return nil
}

// diskBytes sums the sizes of the regular files under the data dir,
// and of the block files among them.
func diskBytes(dir string) (total, blocks int64, err error) {
	err = filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || !e.Type().IsRegular() {
			return err
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		if strings.HasSuffix(e.Name(), block.Suffix) {
			blocks += info.Size()
		}
		return nil
	})
	return total, blocks, err
}

// host returns the host:port of a base URL.
func host(base string) string {
	u, err := url.Parse(base)
	if err != nil {
		return base
	}
	return u.Host
}

// freshDir creates an empty directory under the run directory.
func freshDir(parent, name string) (string, error) {
	dir := filepath.Join(parent, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
