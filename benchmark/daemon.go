package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/tiled-la/bidiag/client"
	"github.com/tiled-la/bidiag/internal/obs"
)

// outDir receives everything the benchmark writes: the daemon binary,
// results.json and the trace files. It carries its own .gitignore.
const outDir = "benchmark/out"

// buildDaemon compiles cmd/bidiagd once per invocation and returns the
// binary's path and the build time. The time is reported as information
// only: it measures the Go build cache, not the program.
func buildDaemon(ctx context.Context) (string, float64, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", 0, err
	}
	bin, err := filepath.Abs(filepath.Join(outDir, "bidiagd"))
	if err != nil {
		return "", 0, err
	}
	t0 := time.Now()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/bidiagd")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/bidiagd: %w\n%s", err, out)
	}
	return bin, time.Since(t0).Seconds(), nil
}

// daemon is one bidiagd child process on a loopback port of its own.
type daemon struct {
	cmd    *exec.Cmd
	cancel context.CancelFunc
	exited chan struct{} // closed once the child has been reaped
	base   string
	cl     *client.Client
	log    bytes.Buffer // written by cmd until exited is closed
}

// startDaemon launches bin with default flags plus -addr and -workers
// and returns once /healthz answers. Cancelling ctx (Ctrl-C included)
// terminates the child; stop must still be called to reap it.
func startDaemon(ctx context.Context, bin string, workers int) (*daemon, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()

	cctx, cancel := context.WithCancel(ctx)
	d := &daemon{cancel: cancel, exited: make(chan struct{}), base: "http://" + addr}
	d.cl = client.New(d.base)
	d.cmd = exec.CommandContext(cctx, bin, "-addr", addr, "-workers", strconv.Itoa(workers))
	d.cmd.Stdout, d.cmd.Stderr = &d.log, &d.log
	// SIGTERM lets the daemon drain and exit by itself; WaitDelay turns a
	// child that ignores it into a kill, so stop never hangs.
	d.cmd.Cancel = func() error { return d.cmd.Process.Signal(syscall.SIGTERM) }
	d.cmd.WaitDelay = 5 * time.Second
	if err := d.cmd.Start(); err != nil {
		cancel()
		return nil, err
	}
	go func() {
		_ = d.cmd.Wait() // the exit status of a terminated child says nothing
		close(d.exited)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		hctx, hcancel := context.WithTimeout(cctx, time.Second)
		_, err := d.cl.Healthz(hctx)
		hcancel()
		if err == nil {
			return d, nil
		}
		select {
		case <-d.exited:
		case <-time.After(5 * time.Millisecond):
			if time.Now().Before(deadline) && cctx.Err() == nil {
				continue
			}
		}
		d.stop()
		return nil, fmt.Errorf("bidiagd on %s never answered /healthz: %v\n%s", addr, err, d.log.String())
	}
}

// stop terminates the child and waits until it has exited, so neither
// the process nor its port outlives the workload.
func (d *daemon) stop() {
	d.cancel()
	<-d.exited
}

func (d *daemon) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// totalAlloc reads the daemon's cumulative allocated bytes from the
// runtime.MemStats dump at the end of its heap profile.
func (d *daemon) totalAlloc(ctx context.Context) (uint64, error) {
	body, err := d.get(ctx, "/debug/pprof/heap?debug=1")
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "# TotalAlloc = "); ok {
			return strconv.ParseUint(strings.TrimSpace(v), 10, 64)
		}
	}
	return 0, errors.New("heap profile has no TotalAlloc line")
}

// queueWait scrapes the cumulative queue-wait histogram from /metrics.
func (d *daemon) queueWait(ctx context.Context) (obs.HistogramSnapshot, error) {
	body, err := d.get(ctx, "/metrics")
	if err != nil {
		return obs.HistogramSnapshot{}, err
	}
	return parseHistogram(string(body), "bidiagd_job_queue_wait_seconds")
}

// parseHistogram extracts one unlabelled histogram from a Prometheus
// text exposition, turning the cumulative buckets back into per-bucket
// counts (the last one is the overflow bucket).
func parseHistogram(text, name string) (obs.HistogramSnapshot, error) {
	var h obs.HistogramSnapshot
	var prev uint64
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, name+`_bucket{le="`)
		if !ok {
			continue
		}
		le, val, ok := strings.Cut(rest, `"} `)
		if !ok {
			return h, fmt.Errorf("malformed bucket line %q", line)
		}
		cum, err := strconv.ParseUint(strings.TrimSpace(val), 10, 64)
		if err != nil {
			return h, fmt.Errorf("bucket line %q: %w", line, err)
		}
		if le != "+Inf" {
			bound, err := strconv.ParseFloat(le, 64)
			if err != nil {
				return h, fmt.Errorf("bucket line %q: %w", line, err)
			}
			h.Bounds = append(h.Bounds, bound)
		}
		h.Counts = append(h.Counts, cum-prev)
		h.Count, prev = cum, cum
	}
	if len(h.Counts) == 0 {
		return h, fmt.Errorf("no %s histogram in /metrics", name)
	}
	return h, nil
}

// minus returns the histogram of the observations made between two
// scrapes of the same cumulative histogram.
func minus(after, before obs.HistogramSnapshot) obs.HistogramSnapshot {
	d := obs.HistogramSnapshot{Bounds: after.Bounds, Counts: make([]uint64, len(after.Counts)), Count: after.Count - before.Count}
	for i := range d.Counts {
		d.Counts[i] = after.Counts[i] - before.Counts[i]
	}
	return d
}

// vars reads the daemon's /debug/vars counters as numbers, flattening
// the nested plan_decisions document to "plan_decisions.explore" etc.
func (d *daemon) vars(ctx context.Context) (map[string]float64, error) {
	doc, err := d.cl.Stats(ctx)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for k, v := range doc {
		switch x := v.(type) {
		case float64:
			out[k] = x
		case map[string]any:
			for kk, vv := range x {
				if f, ok := vv.(float64); ok {
					out[k+"."+kk] = f
				}
			}
		}
	}
	return out, nil
}
