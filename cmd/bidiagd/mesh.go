package main

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"strings"
	"time"

	"github.com/tiled-la/bidiag/internal/cluster"
	"github.com/tiled-la/bidiag/internal/dist"
	"github.com/tiled-la/bidiag/internal/obs"
)

// mesh is this process's attachment to a cluster (-node/-peers): one
// process per grid node on a TCP mesh, rank 0 serving the full HTTP
// surface over it, the other ranks computing and exposing telemetry.
type mesh struct {
	// cfg.Transport is the raw transport (not the Head's demux wrapper):
	// the per-link and clock series come straight from its always-on
	// telemetry.
	cfg cluster.Config
	// head is the job front end, on rank 0 only.
	head *cluster.Head
}

// joinMesh dials the mesh and, on rank 0, attaches the head. The caller
// closes the returned mesh.
func joinMesh(node int, peerList, gridSpec string, stall time.Duration) (*mesh, error) {
	addrs := strings.Split(peerList, ",")
	for i := range addrs {
		addrs[i] = strings.TrimSpace(addrs[i])
		if addrs[i] == "" {
			return nil, fmt.Errorf("-peers entry %d is empty", i)
		}
	}
	grid, err := parseGrid(gridSpec, len(addrs))
	if err != nil {
		return nil, err
	}
	if grid.Nodes() != len(addrs) {
		return nil, fmt.Errorf("-grid %s needs %d processes, -peers lists %d", gridSpec, grid.Nodes(), len(addrs))
	}
	if node < 0 || node >= len(addrs) {
		return nil, fmt.Errorf("-node %d outside the %d-entry peer list", node, len(addrs))
	}
	log.Printf("bidiagd node %d/%d joining mesh (grid %s)", node, len(addrs), grid)
	tr, err := dist.NewTCPTransport(context.Background(), node, addrs, nil)
	if err != nil {
		return nil, err
	}
	m := &mesh{cfg: cluster.Config{Grid: grid, Transport: tr, Rank: node, StallTimeout: stall}}
	if node == 0 {
		if m.head, err = cluster.NewHead(m.cfg); err != nil {
			tr.Close()
			return nil, err
		}
	}
	return m, nil
}

// close shuts the peers down (rank 0) and leaves the mesh.
func (m *mesh) close() {
	if m.head != nil {
		if err := m.head.Close(); err != nil {
			log.Printf("mesh shutdown: %v", err)
		}
	}
	m.cfg.Transport.Close()
}

// servePeer is a compute rank's whole life: jobs arrive over the mesh
// until the head shuts it down (or the mesh closes). Every rank exposes
// its own wire telemetry meanwhile — the head's /metrics only sees the
// head's ends of the links, so dashboards scrape each process.
// Best-effort: a peer without a usable -addr still computes, it just
// isn't scrapable.
func (m *mesh) servePeer(addr string) error {
	log.Printf("bidiagd node %d serving peer jobs", m.cfg.Rank)
	if addr != "" {
		go func() {
			if err := http.ListenAndServe(addr, newMux(nil, m, time.Now(), 0)); err != nil {
				log.Printf("bidiagd node %d: telemetry server on %s: %v", m.cfg.Rank, addr, err)
			}
		}()
	}
	return cluster.ServePeer(m.cfg)
}

// parseGrid reads an "RxC" spec; an empty spec defaults to one process
// column per node (Nx1), the layout with the fewest column exchanges.
func parseGrid(spec string, nodes int) (dist.Grid, error) {
	if spec == "" {
		return dist.Grid{R: nodes, C: 1}, nil
	}
	var r, c int
	if _, err := fmt.Sscanf(strings.ToLower(spec), "%dx%d", &r, &c); err != nil {
		return dist.Grid{}, fmt.Errorf("-grid %q: want RxC", spec)
	}
	g := dist.Grid{R: r, C: c}
	if err := g.Validate(); err != nil {
		return dist.Grid{}, err
	}
	return g, nil
}

// registerLinkMetrics adds one rank's always-on wire telemetry to a
// scrape registry: per-link counters and latency histograms (labelled
// from/to by rank) plus the handshake clock estimate per peer. Every
// rank's /metrics uses it, so a 2-rank mesh exposes both directions of
// every link.
func registerLinkMetrics(reg *obs.Registry, tr dist.Transport) {
	if ls, ok := tr.(dist.LinkStatser); ok {
		stats := ls.Links()
		rank, links := stats.Rank(), stats.Snapshot()
		sent := func(l dist.LinkSnapshot) string { return fmt.Sprintf(`from="%d",to="%d"`, rank, l.Peer) }
		recv := func(l dist.LinkSnapshot) string { return fmt.Sprintf(`from="%d",to="%d"`, l.Peer, rank) }
		counter := func(name, help string, label func(dist.LinkSnapshot) string, f func(dist.LinkSnapshot) int64) {
			reg.LabeledCounter(name, help, func() []obs.LabeledValue {
				out := make([]obs.LabeledValue, len(links))
				for i, l := range links {
					out[i] = obs.LabeledValue{Label: label(l), Value: float64(f(l))}
				}
				return out
			})
		}
		hist := func(name, help string, f func(dist.LinkSnapshot) obs.HistogramSnapshot) {
			reg.LabeledHistogram(name, help, func() []obs.LabeledHist {
				out := make([]obs.LabeledHist, len(links))
				for i, l := range links {
					out[i] = obs.LabeledHist{Label: sent(l), Hist: f(l)}
				}
				return out
			})
		}
		counter("bidiagd_link_sent_frames_total", "Frames this rank sent per link.",
			sent, func(l dist.LinkSnapshot) int64 { return l.SentFrames })
		counter("bidiagd_link_sent_bytes_total", "Wire bytes this rank sent per link, framing included.",
			sent, func(l dist.LinkSnapshot) int64 { return l.SentWireBytes })
		counter("bidiagd_link_sent_payload_bytes_total", "Payload bytes this rank sent per link.",
			sent, func(l dist.LinkSnapshot) int64 { return l.SentPayloadBytes })
		counter("bidiagd_link_recv_frames_total", "Frames this rank received per link.",
			recv, func(l dist.LinkSnapshot) int64 { return l.RecvFrames })
		counter("bidiagd_link_recv_bytes_total", "Wire bytes this rank received per link, framing included.",
			recv, func(l dist.LinkSnapshot) int64 { return l.RecvWireBytes })
		hist("bidiagd_link_send_seconds", "Per-frame transport send latency (framing, syscall, TCP backpressure) per link.",
			func(l dist.LinkSnapshot) obs.HistogramSnapshot { return l.SendSeconds })
		hist("bidiagd_link_queue_wait_seconds", "Time frames sat in the executor outbox before the NIC picked them up, per link.",
			func(l dist.LinkSnapshot) obs.HistogramSnapshot { return l.QueueWaitSeconds })
	}
	if cs, ok := tr.(dist.ClockSyncer); ok {
		syncs := cs.ClockSyncs()
		gauge := func(name, help string, f func(dist.ClockSync) time.Duration) {
			reg.LabeledGauge(name, help, func() []obs.LabeledValue {
				out := make([]obs.LabeledValue, len(syncs))
				for i, c := range syncs {
					out[i] = obs.LabeledValue{Label: fmt.Sprintf(`peer="%d"`, c.Peer), Value: f(c).Seconds()}
				}
				return out
			})
		}
		gauge("bidiagd_clock_offset_seconds", "Handshake clock-offset estimate to each peer (peer minus local).",
			func(c dist.ClockSync) time.Duration { return c.Offset })
		gauge("bidiagd_clock_rtt_seconds", "Best probe round-trip time to each peer (bounds the offset error to ±rtt/2).",
			func(c dist.ClockSync) time.Duration { return c.RTT })
	}
}
