// Command bidiagrouter is a shard router for a fleet of bidiagd
// instances. It consistent-hashes each job's content-addressed cache
// key (bidiag.CacheKey) over the backend list, so repeat submissions of
// the same matrix+options land on the same node and hit its result
// cache; other backends never see the job and their caches hold other
// shards of the keyspace.
//
// Endpoints mirror bidiagd's v1 surface:
//
//	POST /v1/singular-values   forwarded to the key's backend
//	POST /v1/svd               forwarded to the key's backend
//	GET  /healthz              router + per-backend health
//	GET  /metrics              bidiagrouter_requests_total{backend,result},
//	                           bidiagrouter_backend_healthy
//
// The router reads each body once, in either codec of package httpapi,
// to validate and hash it; what it forwards is the bytes and Content-Type
// it received, and what it relays is the backend's status and bytes. A
// backend that cannot be dialed fails over to the next backend on the
// ring (the job provably never started, so the retry is safe); served
// errors, including 429 backpressure, are relayed to the client
// unchanged.
//
//	bidiagrouter -addr :8099 -backends http://n0:8097,http://n1:8097
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
	"strings"
	"syscall"
	"time"
)

func main() {
	addr := flag.String("addr", ":8099", "listen address")
	backends := flag.String("backends", "", "comma-separated bidiagd base URLs (required)")
	vnodes := flag.Int("vnodes", 128, "virtual nodes per backend on the hash ring")
	healthEvery := flag.Duration("health-interval", 2*time.Second, "backend health-probe interval")
	maxBodyMB := flag.Int64("max-body-mb", 32, "largest accepted request body in MiB")
	flag.Parse()

	var urls []string
	for _, u := range strings.Split(*backends, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, strings.TrimRight(u, "/"))
		}
	}
	if len(urls) == 0 {
		fmt.Fprintln(os.Stderr, "bidiagrouter: -backends is required")
		os.Exit(1)
	}

	rt := newRouter(urls, *vnodes, *maxBodyMB<<20)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go rt.healthLoop(ctx, *healthEvery)

	srv := &http.Server{
		Addr:              *addr,
		Handler:           rt.mux(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("bidiagrouter listening on %s over %d backends", *addr, len(urls))

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Printf("received %s; shutting down", sig)
		sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer scancel()
		if err := srv.Shutdown(sctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}
