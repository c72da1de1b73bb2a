package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tiled-la/bidiag"
	"github.com/tiled-la/bidiag/client"
	"github.com/tiled-la/bidiag/httpapi"
	"github.com/tiled-la/bidiag/internal/obs"
)

// backend is one bidiagd instance behind the router.
type backend struct {
	url     string
	cl      *client.Client
	healthy atomic.Bool

	routed  atomic.Int64
	retried atomic.Int64
	failed  atomic.Int64
	// latency observes every forward attempt against this backend —
	// success, relayed error, or dial failure — end to end as the router
	// sees it (job execution included, so TimeBuckets-scale).
	latency *obs.Histogram
}

// router shards jobs over a bidiagd fleet by consistent-hashing the
// library's content-addressed cache key: the same matrix+options always
// lands on the same backend, so its result cache behaves like one
// partitioned LRU. Dial failures fail over to the next backend on the
// ring — safe because an unreachable backend cannot have started the
// job — while served errors (including 429 backpressure) are relayed to
// the client untouched.
type router struct {
	ring     *ring
	backends map[string]*backend
	start    time.Time
	maxBody  int64
}

func newRouter(urls []string, vnodes int, maxBody int64) *router {
	rt := &router{
		ring:     newRing(urls, vnodes),
		backends: make(map[string]*backend, len(urls)),
		start:    time.Now(),
		maxBody:  maxBody,
	}
	for _, u := range urls {
		b := &backend{url: u, cl: client.New(u), latency: obs.NewHistogram(nil)}
		b.healthy.Store(true) // optimistic until the first probe
		rt.backends[u] = b
	}
	return rt
}

// healthLoop probes every backend each interval until ctx is done.
func (rt *router) healthLoop(ctx context.Context, interval time.Duration) {
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		rt.probeAll(ctx)
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
	}
}

func (rt *router) probeAll(ctx context.Context) {
	var wg sync.WaitGroup
	for _, b := range rt.backends {
		wg.Add(1)
		go func(b *backend) {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, 5*time.Second)
			defer cancel()
			_, err := b.cl.Healthz(pctx)
			was := b.healthy.Swap(err == nil)
			if was != (err == nil) {
				log.Printf("backend %s health: %v -> %v (%v)", b.url, was, err == nil, err)
			}
		}(b)
	}
	wg.Wait()
}

func (rt *router) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/singular-values", func(w http.ResponseWriter, r *http.Request) {
		rt.route(w, r, bidiag.JobSingularValues)
	})
	mux.HandleFunc("POST /v1/svd", func(w http.ResponseWriter, r *http.Request) {
		rt.route(w, r, bidiag.JobSVD)
	})
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	mux.HandleFunc("GET /metrics", rt.handleMetrics)
	return mux
}

// route reads the job once — the router must see the matrix to validate
// and hash it — keeping the bytes as they arrived, picks the key's
// backend, and forwards those bytes, failing over along the ring only
// when a backend was unreachable.
func (rt *router) route(w http.ResponseWriter, r *http.Request, kind bidiag.JobKind) {
	// raw is sized from the declared length only within httpapi's
	// process-wide up-front cap; past it, it grows as bytes arrive.
	var raw bytes.Buffer
	if n := r.ContentLength; n > 0 && n <= rt.maxBody && httpapi.Reserve(n, rt.maxBody) {
		defer httpapi.Unreserve(n)
		raw.Grow(int(n))
	}
	r.Body = struct {
		io.Reader
		io.Closer
	}{io.TeeReader(r.Body, &raw), r.Body}
	req, status, err := httpapi.ReadRequest(w, r, rt.maxBody)
	if err != nil {
		writeError(w, status, err)
		return
	}
	key := bidiag.CacheKey(kind, req.A, req.Opts)
	// What goes to the backend is raw; the decoded matrix is done with.
	req.Release()

	// Walk the ring: the key's owner first, then — only on connect
	// failure — the rest in ring order. Unhealthy backends are skipped
	// up front but still tried last-resort if every backend looks down.
	seq := rt.ring.sequence(key)
	var tried []string
	for pass := 0; pass < 2; pass++ {
		for _, url := range seq {
			b := rt.backends[url]
			if pass == 0 && !b.healthy.Load() {
				continue
			}
			if contains(tried, url) {
				continue
			}
			tried = append(tried, url)
			if len(tried) > 1 {
				b.retried.Add(1)
			}
			if rt.forward(w, r, b, raw.Bytes()) {
				return
			}
			b.healthy.Store(false) // dial failed; the prober will restore it
		}
	}
	writeError(w, http.StatusBadGateway, fmt.Errorf("no backend reachable for this job (tried %s)", strings.Join(tried, ", ")))
}

// forward posts the request's body, as received and under its
// Content-Type, to the same path and query on one backend, and relays
// the answer — status, codec and bytes — untouched. It returns false
// only for unreachable backends (the one retryable case); everything
// served, success or error, is written and final.
func (rt *router) forward(w http.ResponseWriter, r *http.Request, b *backend, body []byte) bool {
	begin := time.Now()
	defer func() { b.latency.Observe(time.Since(begin).Seconds()) }()
	var resp *http.Response
	out, err := http.NewRequestWithContext(r.Context(), http.MethodPost, b.url+r.URL.RequestURI(), bytes.NewReader(body))
	if err == nil {
		out.Header["Content-Type"] = r.Header["Content-Type"]
		resp, err = http.DefaultClient.Do(out)
	}
	if err != nil {
		b.failed.Add(1)
		if client.IsUnreachable(err) && r.Context().Err() == nil {
			log.Printf("backend %s unreachable: %v", b.url, err)
			return false
		}
		writeError(w, http.StatusBadGateway, fmt.Errorf("backend %s: %v", b.url, err))
		return true
	}
	defer resp.Body.Close()
	b.routed.Add(1)
	for _, h := range []string{"Content-Type", "Content-Length", "Retry-After"} {
		w.Header()[h] = resp.Header[h]
	}
	w.WriteHeader(resp.StatusCode)
	if _, err := io.Copy(w, resp.Body); err != nil {
		log.Printf("relay response of %s: %v", b.url, err)
	}
	return true
}

func (rt *router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	type bstat struct {
		URL     string `json:"url"`
		Healthy bool   `json:"healthy"`
	}
	var list []bstat
	healthy := 0
	for _, url := range sortedURLs(rt.backends) {
		b := rt.backends[url]
		ok := b.healthy.Load()
		if ok {
			healthy++
		}
		list = append(list, bstat{URL: url, Healthy: ok})
	}
	status := "ok"
	code := http.StatusOK
	if healthy == 0 {
		status = "down"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{
		"status":         status,
		"mode":           "router",
		"backends":       list,
		"uptime_seconds": time.Since(rt.start).Seconds(),
	})
}

func (rt *router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	reg := obs.NewRegistry()
	reg.Gauge("bidiagrouter_uptime_seconds", "Seconds since the router started.", func() float64 {
		return time.Since(rt.start).Seconds()
	})
	reg.LabeledGauge("bidiagrouter_backend_healthy", "Last health-probe verdict per backend.", func() []obs.LabeledValue {
		var vals []obs.LabeledValue
		for _, url := range sortedURLs(rt.backends) {
			v := 0.0
			if rt.backends[url].healthy.Load() {
				v = 1
			}
			vals = append(vals, obs.LabeledValue{Label: fmt.Sprintf("backend=%q", url), Value: v})
		}
		return vals
	})
	reg.LabeledCounter("bidiagrouter_requests_total", "Requests by backend and result.", func() []obs.LabeledValue {
		var vals []obs.LabeledValue
		for _, url := range sortedURLs(rt.backends) {
			b := rt.backends[url]
			for _, rc := range []struct {
				result string
				n      int64
			}{
				{"routed", b.routed.Load()},
				{"retried", b.retried.Load()},
				{"failed", b.failed.Load()},
			} {
				vals = append(vals, obs.LabeledValue{
					Label: fmt.Sprintf("backend=%q,result=%q", url, rc.result),
					Value: float64(rc.n),
				})
			}
		}
		return vals
	})
	reg.LabeledHistogram("bidiagrouter_backend_attempt_seconds", "Forward-attempt latency per backend as the router sees it (job execution included).", func() []obs.LabeledHist {
		var out []obs.LabeledHist
		for _, url := range sortedURLs(rt.backends) {
			out = append(out, obs.LabeledHist{
				Label: fmt.Sprintf("backend=%q", url),
				Hist:  rt.backends[url].latency.Snapshot(),
			})
		}
		return out
	})
	reg.ServeHTTP(w, r)
}

func sortedURLs(m map[string]*backend) []string {
	out := make([]string, 0, len(m))
	for u := range m {
		out = append(out, u)
	}
	// Deterministic metric ordering.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("write response: %v", err)
	}
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, httpapi.ErrorResponse{Error: err.Error()})
}
