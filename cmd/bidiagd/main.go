// Command bidiagd serves singular value decompositions over HTTP: many
// concurrent jobs multiplexed on one shared elastic worker pool
// (bidiag.Service), each job one task graph among many, with a
// content-addressed result cache, bounded admission and per-request
// cancellation.
//
// Endpoints:
//
//	POST /v1/svd               {"m":3,"n":2,"data":[...col-major...],"options":{"nb":64}}
//	POST /v1/singular-values   same request; values-only response. A request
//	                           without an options object (or with "auto":true)
//	                           lets the plan autotuner choose the configuration.
//	                           (?trace=1 records the job's task timeline and
//	                           returns a job_id keying /debug/trace/{job_id})
//	                           Both also take, and then answer with, a binary
//	                           frame under Content-Type application/x-bidiag-matrix
//	                           (raw float64 words; layout in package httpapi).
//	GET  /healthz              liveness + uptime
//	GET  /metrics              Prometheus text exposition: job/latency/queue-wait
//	                           histograms, queue and cache gauges, outcome and
//	                           plan-decision counters
//	GET  /debug/vars           the same snapshot as JSON (queue depth, jobs/s,
//	                           p50/p99 latency, cache hit rate)
//	GET  /debug/plans          the plan autotuner's profiles: candidate sets,
//	                           measured GFLOP/s, promotions (versioned JSON)
//	GET  /debug/trace/{id}     Chrome-tracing JSON timeline of a traced job
//	                           (load in Perfetto or chrome://tracing)
//	GET  /debug/pprof/...      standard net/http/pprof profiling surface
//
// Overload is surfaced as HTTP 429 (the admission queue is bounded);
// clients that disconnect cancel their job mid-graph. A kernel panic
// fails only the offending request. A request whose "workers" exceeds
// the larger of -workers and the CPU count is a 400.
//
//	bidiagd -addr :8097 -workers 8 -cache-mb 128
//
// Cluster mode (-node, -peers, optionally -grid and -stall) is the same
// daemon over a TCP mesh of processes, one per node of the process grid:
//
//	bidiagd -node 1 -peers hostA:9390,hostB:9390 -addr :8098
//	bidiagd -node 0 -peers hostA:9390,hostB:9390 -addr :8097 -workers 4
//
// Rank 0 serves every endpoint above through the same Service, whose jobs
// run across the mesh (the Options.Distributed graph of the grid, -workers
// a rank): same queue, 429, cache, cancellation until a job is announced,
// /debug surface and metrics, plus bidiagd_cluster_*, bidiagd_link_* and
// bidiagd_clock_* series and mode/rank/nodes/grid in /healthz. A mesh has
// no planner and no vectors: "tree" and "auto" are 400, an options-free
// request runs the library defaults, /v1/svd is 501. The other ranks
// compute, and serve /healthz and /metrics only.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/tiled-la/bidiag"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", ":8097", "listen address")
	workers := flag.Int("workers", 0, "shared pool size (0: GOMAXPROCS)")
	queue := flag.Int("queue", 0, "admission queue depth (0: default 256)")
	inflight := flag.Int("inflight", 0, "max concurrently executing jobs (0: default)")
	cacheMB := flag.Int("cache-mb", 0, "result cache budget in MiB (0: default 64, negative: disable)")
	maxBodyMB := flag.Int64("max-body-mb", 0, "largest accepted request body in MiB (0: default 32)")
	profiles := flag.String("profiles", "", "persist plan-autotuner profiles at this path so restarts keep promoted plans (empty: in-memory only)")
	planSamples := flag.Int("plan-min-samples", 0, "measured runs per candidate before a plan is promoted (0: default 3, negative: never promote)")
	traceCap := flag.Int("trace-event-cap", 0, "per-worker trace-ring capacity of ?trace=1 jobs (0: size to the job's task count; smaller caps bound trace memory and drop excess events)")
	node := flag.Int("node", -1, "cluster mode: this process's rank in -peers (rank 0 serves HTTP, others compute)")
	peers := flag.String("peers", "", "cluster mode: comma-separated mesh addresses, one per rank (index = rank)")
	gridSpec := flag.String("grid", "", "cluster mode: process grid as RxC (default: Nx1 over the peer list)")
	stall := flag.Duration("stall", 2*time.Minute, "cluster mode: fail a job when no task progresses for this long (0 disables)")
	flag.Parse()

	// Cluster mode: every rank joins the mesh; ranks other than 0 compute
	// until the head shuts them down, rank 0 carries on as the daemon with
	// its service attached to the mesh.
	var m *mesh
	if *node >= 0 || *peers != "" {
		if *node < 0 || *peers == "" {
			return errors.New("cluster mode needs both -node and -peers")
		}
		var err error
		if m, err = joinMesh(*node, *peers, *gridSpec, *stall); err != nil {
			return err
		}
		defer m.close()
		if *node != 0 {
			return m.servePeer(*addr)
		}
	}

	cacheBytes := int64(*cacheMB) << 20
	if *cacheMB < 0 {
		cacheBytes = -1
	}
	cfg := &bidiag.ServiceConfig{
		Workers:     *workers,
		QueueDepth:  *queue,
		MaxInFlight: *inflight,
		CacheBytes:  cacheBytes,

		PlanProfiles:   *profiles,
		PlanMinSamples: *planSamples,
		TraceEventCap:  *traceCap,
	}
	if m != nil {
		cfg.Mesh = m.head
	}
	svc := bidiag.NewService(cfg)
	defer svc.Close()

	srv := &http.Server{
		Addr:              *addr,
		Handler:           newMux(svc, m, time.Now(), *maxBodyMB<<20),
		ReadHeaderTimeout: 10 * time.Second,
		// Bounds a slow-body client; responses (and job execution) are
		// not under this clock, only reading the request.
		ReadTimeout: 2 * time.Minute,
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("bidiagd listening on %s (workers=%d)", *addr, svc.Stats().Workers)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Printf("received %s; shutting down", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			return err
		}
	}
	return nil
}
