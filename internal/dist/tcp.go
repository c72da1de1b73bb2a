package dist

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// The TCP wire format. Every connection starts with a fixed handshake and
// then carries length-prefixed frames:
//
//	handshake:  "BDT1" magic (4 bytes) | int32 sender rank
//	clock sync: 8 × ( uint64 probe sequence → uint64 peer UnixNano echo )
//	frame:      uint32 length          (bytes after this field)
//	            int32  From | To | Producer | Bytes
//	            uint32 enable count    | int32 × count enabled task IDs
//	            payload                (rest of the frame)
//
// The clock-sync exchange rides on the handshake, dialer-driven like the
// hello: the dialer writes an 8-byte probe, the acceptor echoes its
// current clock as a uint64 UnixNano, and the dialer estimates the
// peer-clock offset at the probe midpoint, keeping the minimum-RTT
// sample (the NTP estimator). Since every rank dials every peer, each
// rank finishes the mesh build knowing its offset to all peers — what
// lets a trace gather align event timestamps recorded on different
// machines onto one clock.
//
// All integers are little-endian, matching the region payload serializers
// of internal/core, so a frame's payload is the exact byte string a
// handle Snapshot produced. One frame is one dist.Message; per-connection
// FIFO gives the per-sender ordering the Transport contract asks for.
const (
	tcpMagic = "BDT1"
	// tcpFrameFixed is the fixed portion of a frame after the length
	// prefix: four int32 fields plus the enable count.
	tcpFrameFixed = 20
	// tcpMaxFrame bounds a single frame (1 GiB): a corrupted length
	// prefix fails the connection instead of attempting the allocation.
	tcpMaxFrame = 1 << 30
	// tcpClockProbes is the number of offset/RTT probe rounds per
	// connection; the minimum-RTT round wins.
	tcpClockProbes = 8
)

// TCPOptions tunes a TCPTransport. The zero value selects the defaults.
type TCPOptions struct {
	// DialTimeout bounds the whole connect phase per peer, including
	// connection-refused retries while the peer process is still booting
	// (default 10s).
	DialTimeout time.Duration
	// SendTimeout is the per-frame write deadline (default 30s). A stuck
	// peer therefore surfaces as a Send error — which the executor turns
	// into a prompt job failure — rather than a silent hang.
	SendTimeout time.Duration
	// InboxDepth is the receive channel's buffer (default 256). A full
	// inbox exerts backpressure through TCP flow control.
	InboxDepth int
	// Listener, when non-nil, is used instead of listening on
	// addrs[rank] — tests pre-bind port 0 listeners so every rank knows
	// the full address list before any transport exists.
	Listener net.Listener
}

func (o *TCPOptions) withDefaults() TCPOptions {
	var v TCPOptions
	if o != nil {
		v = *o
	}
	if v.DialTimeout <= 0 {
		v.DialTimeout = 10 * time.Second
	}
	if v.SendTimeout <= 0 {
		v.SendTimeout = 30 * time.Second
	}
	if v.InboxDepth <= 0 {
		v.InboxDepth = 256
	}
	return v
}

// TCPTransport is the cross-process Transport: one process per node, a
// full mesh of TCP connections, length-prefixed tile frames. Each
// transport instance serves exactly ONE rank — Send routes to the
// outgoing connection of the destination (or loops back for self-sends),
// and Recv is only valid for the transport's own rank.
//
// Sends are NIC-serialized by construction: the executor drains each
// node's outbox through a single sender goroutine, and a per-connection
// mutex keeps any stray concurrent Send from interleaving frame bytes.
type TCPTransport struct {
	rank  int32
	inbox chan Message

	ln    net.Listener
	conns []*tcpConn // outgoing, indexed by peer rank (nil at self)

	readers sync.WaitGroup
	inMu    sync.Mutex
	in      []net.Conn // accepted connections, closed on Close

	closeOnce sync.Once
	closed    chan struct{}
	closeErr  error

	frames   atomic.Int64
	wire     atomic.Int64
	payload  atomic.Int64
	received atomic.Int64

	// links is the per-peer telemetry; clock holds the handshake-measured
	// offset/RTT per dialed peer (written before NewTCPTransport returns,
	// read-only after).
	links         *LinkStats
	clock         []ClockSync
	handshakeTout time.Duration
}

type tcpConn struct {
	mu   sync.Mutex
	c    net.Conn
	tout time.Duration
}

// NewTCPTransport connects rank's process into the mesh described by
// addrs (addrs[i] is node i's listen address; addrs[rank] is ours unless
// opt.Listener overrides it). It listens first, then dials every peer
// with connection-refused retries until ctx or the dial timeout expires —
// so the N processes of a grid may be started in any order — and
// performs the rank handshake on each connection. The returned transport
// is ready for Send and Recv(rank).
func NewTCPTransport(ctx context.Context, rank int, addrs []string, opt *TCPOptions) (*TCPTransport, error) {
	if rank < 0 || rank >= len(addrs) {
		return nil, fmt.Errorf("dist: rank %d outside address list of %d", rank, len(addrs))
	}
	o := opt.withDefaults()
	ln := o.Listener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", addrs[rank])
		if err != nil {
			return nil, fmt.Errorf("dist: rank %d listen %s: %w", rank, addrs[rank], err)
		}
	}
	t := &TCPTransport{
		rank:   int32(rank),
		inbox:  make(chan Message, o.InboxDepth),
		ln:     ln,
		conns:  make([]*tcpConn, len(addrs)),
		closed: make(chan struct{}),
		links:  NewLinkStats(rank, len(addrs)),
		clock:  make([]ClockSync, len(addrs)),

		handshakeTout: o.DialTimeout,
	}
	go t.accept()

	for peer, addr := range addrs {
		if peer == rank {
			continue
		}
		c, err := dialRetry(ctx, addr, o.DialTimeout)
		if err != nil {
			t.Close()
			return nil, fmt.Errorf("dist: rank %d dial node %d (%s): %w", rank, peer, addr, err)
		}
		var hello [8]byte
		copy(hello[:4], tcpMagic)
		binary.LittleEndian.PutUint32(hello[4:], uint32(rank))
		if _, err := c.Write(hello[:]); err != nil {
			c.Close()
			t.Close()
			return nil, fmt.Errorf("dist: rank %d handshake to node %d: %w", rank, peer, err)
		}
		sync, err := clockProbe(c, o.DialTimeout)
		if err != nil {
			c.Close()
			t.Close()
			return nil, fmt.Errorf("dist: rank %d clock sync with node %d: %w", rank, peer, err)
		}
		sync.Peer = int32(peer)
		t.clock[peer] = sync
		t.conns[peer] = &tcpConn{c: c, tout: o.SendTimeout}
	}
	return t, nil
}

// clockProbe runs the dialer side of the handshake clock sync: write a
// probe, read the peer's UnixNano echo, estimate the offset at the probe
// midpoint, and keep the minimum-RTT sample.
func clockProbe(c net.Conn, budget time.Duration) (ClockSync, error) {
	c.SetDeadline(time.Now().Add(budget))
	defer c.SetDeadline(time.Time{})
	var buf [8]byte
	best := ClockSync{RTT: time.Duration(1<<63 - 1)}
	for i := 0; i < tcpClockProbes; i++ {
		binary.LittleEndian.PutUint64(buf[:], uint64(i))
		t0 := time.Now()
		if _, err := c.Write(buf[:]); err != nil {
			return ClockSync{}, err
		}
		if _, err := io.ReadFull(c, buf[:]); err != nil {
			return ClockSync{}, err
		}
		rtt := time.Since(t0)
		peerNano := int64(binary.LittleEndian.Uint64(buf[:]))
		mid := t0.UnixNano() + rtt.Nanoseconds()/2
		if rtt < best.RTT {
			best.RTT = rtt
			best.Offset = time.Duration(peerNano - mid)
		}
	}
	return best, nil
}

// clockServe runs the acceptor side: echo the local clock once per probe.
func clockServe(c net.Conn, budget time.Duration) error {
	c.SetDeadline(time.Now().Add(budget))
	defer c.SetDeadline(time.Time{})
	var buf [8]byte
	for i := 0; i < tcpClockProbes; i++ {
		if _, err := io.ReadFull(c, buf[:]); err != nil {
			return err
		}
		binary.LittleEndian.PutUint64(buf[:], uint64(time.Now().UnixNano()))
		if _, err := c.Write(buf[:]); err != nil {
			return err
		}
	}
	return nil
}

// dialRetry dials addr until it succeeds, the budget runs out, or ctx is
// done. Connection refusals are retried with a short backoff: they are
// the normal state while a peer process is still booting.
func dialRetry(ctx context.Context, addr string, budget time.Duration) (net.Conn, error) {
	deadline := time.Now().Add(budget)
	d := net.Dialer{}
	backoff := 10 * time.Millisecond
	for {
		attemptCtx, cancel := context.WithDeadline(ctx, deadline)
		c, err := d.DialContext(attemptCtx, "tcp", addr)
		cancel()
		if err == nil {
			return c, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if time.Now().After(deadline) {
			return nil, err
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(backoff):
		}
		if backoff < 500*time.Millisecond {
			backoff *= 2
		}
	}
}

// accept admits incoming mesh connections: read the handshake, learn the
// peer's rank, then pump its frames into the inbox until EOF or Close.
func (t *TCPTransport) accept() {
	for {
		c, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.inMu.Lock()
		select {
		case <-t.closed:
			t.inMu.Unlock()
			c.Close()
			return
		default:
		}
		t.in = append(t.in, c)
		t.readers.Add(1)
		t.inMu.Unlock()
		go t.read(c)
	}
}

func (t *TCPTransport) read(c net.Conn) {
	defer t.readers.Done()
	var hello [8]byte
	if _, err := io.ReadFull(c, hello[:]); err != nil || string(hello[:4]) != tcpMagic {
		c.Close()
		return
	}
	peer := int32(binary.LittleEndian.Uint32(hello[4:]))
	if err := clockServe(c, t.handshakeTout); err != nil {
		c.Close()
		return
	}
	for {
		msg, err := readFrame(c)
		if err != nil {
			return // EOF (peer done) or Close
		}
		if msg.From != peer || msg.To != t.rank {
			// The handshake named the sender and this end is one rank: a
			// frame claiming otherwise is forged or corrupt.
			c.Close()
			return
		}
		t.received.Add(1)
		t.links.RecordRecv(peer, frameWireSize(msg))
		select {
		case t.inbox <- msg:
		case <-t.closed:
			return
		}
	}
}

// Send implements Transport: self-sends loop back through the inbox
// (payload copied, preserving the no-aliasing property), everything else
// is framed onto the destination's connection under a write deadline.
func (t *TCPTransport) Send(msg Message) error {
	if msg.To == t.rank {
		if msg.Payload != nil {
			msg.Payload = append([]byte(nil), msg.Payload...)
		}
		select {
		case t.inbox <- msg:
			return nil
		case <-t.closed:
			return errors.New("dist: tcp transport closed")
		}
	}
	if msg.To < 0 || int(msg.To) >= len(t.conns) || t.conns[msg.To] == nil {
		return fmt.Errorf("dist: rank %d has no connection to node %d", t.rank, msg.To)
	}
	buf := appendFrame(nil, msg)
	pc := t.conns[msg.To]
	begin := time.Now()
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.c.SetWriteDeadline(begin.Add(pc.tout))
	if _, err := pc.c.Write(buf); err != nil {
		return fmt.Errorf("dist: rank %d send to node %d: %w", t.rank, msg.To, err)
	}
	t.frames.Add(1)
	t.wire.Add(int64(len(buf)))
	t.payload.Add(int64(len(msg.Payload)))
	t.links.RecordSend(msg.To, int64(len(buf)), int64(len(msg.Payload)), time.Since(begin))
	return nil
}

// Recv implements Transport. A TCPTransport serves exactly one rank;
// asking for any other node's stream returns nil.
func (t *TCPTransport) Recv(node int32) <-chan Message {
	if node != t.rank {
		return nil
	}
	return t.inbox
}

// Rank returns the node this transport serves.
func (t *TCPTransport) Rank() int32 { return t.rank }

// WireStats reports the transport's send-side accounting: frames sent to
// remote peers, total bytes on the wire (length prefixes and headers
// included), and the payload bytes inside them. Self-sends never touch a
// socket and are excluded.
func (t *TCPTransport) WireStats() (frames, wireBytes, payloadBytes int64) {
	return t.frames.Load(), t.wire.Load(), t.payload.Load()
}

// FramesReceived reports how many frames arrived from remote peers.
func (t *TCPTransport) FramesReceived() int64 { return t.received.Load() }

// Links exposes the transport's always-on per-link telemetry,
// implementing LinkStatser.
func (t *TCPTransport) Links() *LinkStats { return t.links }

// ClockSyncs reports the handshake-measured clock relation to every
// peer (self excluded), implementing ClockSyncer.
func (t *TCPTransport) ClockSyncs() []ClockSync {
	out := make([]ClockSync, 0, len(t.clock)-1)
	for p, s := range t.clock {
		if int32(p) == t.rank {
			continue
		}
		s.Peer = int32(p)
		out = append(out, s)
	}
	return out
}

// Close tears the mesh down: stop accepting, close every connection, and
// close the inbox once the readers have drained. Safe to call more than
// once. All sends must have completed; in-flight frames already written
// to a socket are still delivered to peers (TCP flushes before FIN).
func (t *TCPTransport) Close() error {
	t.closeOnce.Do(func() {
		close(t.closed)
		t.closeErr = t.ln.Close()
		for _, pc := range t.conns {
			if pc != nil {
				pc.c.Close()
			}
		}
		t.inMu.Lock()
		in := t.in
		t.in = nil
		t.inMu.Unlock()
		for _, c := range in {
			c.Close()
		}
		t.readers.Wait()
		close(t.inbox)
	})
	return t.closeErr
}

// LoopbackTCPMesh builds an n-rank full mesh on 127.0.0.1 and returns
// one connected transport per rank. Listeners are pre-bound on port 0 so
// every rank knows the full address list before any transport dials —
// the in-process analogue of starting n bidiagd processes. On error,
// any transports already built are closed.
func LoopbackTCPMesh(n int) ([]*TCPTransport, error) {
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	trs := make([]*TCPTransport, n)
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := range trs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			trs[i], errs[i] = NewTCPTransport(context.Background(), i, addrs, &TCPOptions{Listener: lns[i]})
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			for _, tr := range trs {
				if tr != nil {
					tr.Close()
				}
			}
			return nil, err
		}
	}
	return trs, nil
}

// appendFrame encodes msg as one wire frame at the end of buf.
func appendFrame(buf []byte, msg Message) []byte {
	n := tcpFrameFixed + 4*len(msg.Enable) + len(msg.Payload)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(msg.From))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(msg.To))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(msg.Producer))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(msg.Bytes))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(msg.Enable)))
	for _, id := range msg.Enable {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(id))
	}
	return append(buf, msg.Payload...)
}

// frameWireSize returns the on-the-wire size of msg's frame, including
// the length prefix — the figure WireStats accumulates per frame.
func frameWireSize(msg Message) int64 {
	return int64(4 + tcpFrameFixed + 4*len(msg.Enable) + len(msg.Payload))
}

// FrameWireSize reports what msg costs on the TCP wire, framing
// included — the figure WireStats and the comm-trace events use. Layers
// that send control frames outside the executor (the cluster job
// protocol) use it to record comparable send events.
func FrameWireSize(msg Message) int64 { return frameWireSize(msg) }

// frameChunk bounds what a length prefix alone makes readFrame allocate.
const frameChunk = 32 << 10

// readBody reads an n-byte frame body in chunks, the first frameChunk
// bytes and each next one as large as all before it, joined once
// complete: a peer that announces more than it sends costs at most twice
// what it sent plus one chunk, not the tcpMaxFrame its prefix may claim.
func readBody(r io.Reader, n int) ([]byte, error) {
	body := make([]byte, min(n, frameChunk))
	if _, err := io.ReadFull(r, body); err != nil || len(body) == n {
		return body, err
	}
	chunks := [][]byte{body}
	for got := len(body); got < n; {
		c := make([]byte, min(n-got, got))
		if _, err := io.ReadFull(r, c); err != nil {
			return nil, err
		}
		chunks = append(chunks, c)
		got += len(c)
	}
	return bytes.Join(chunks, nil), nil
}

// readFrame decodes one frame from r.
func readFrame(r io.Reader) (Message, error) {
	var lenb [4]byte
	if _, err := io.ReadFull(r, lenb[:]); err != nil {
		return Message{}, err
	}
	n := binary.LittleEndian.Uint32(lenb[:])
	if n < tcpFrameFixed || n > tcpMaxFrame {
		return Message{}, fmt.Errorf("dist: invalid frame length %d", n)
	}
	body, err := readBody(r, int(n))
	if err != nil {
		return Message{}, err
	}
	var msg Message
	msg.From = int32(binary.LittleEndian.Uint32(body[0:]))
	msg.To = int32(binary.LittleEndian.Uint32(body[4:]))
	msg.Producer = int32(binary.LittleEndian.Uint32(body[8:]))
	msg.Bytes = int32(binary.LittleEndian.Uint32(body[12:]))
	ne := binary.LittleEndian.Uint32(body[16:])
	if tcpFrameFixed+4*uint64(ne) > uint64(n) {
		return Message{}, fmt.Errorf("dist: frame enable count %d exceeds frame length %d", ne, n)
	}
	if ne > 0 {
		msg.Enable = make([]int32, ne)
		for i := range msg.Enable {
			msg.Enable[i] = int32(binary.LittleEndian.Uint32(body[tcpFrameFixed+4*i:]))
		}
	}
	if payload := body[tcpFrameFixed+4*ne:]; len(payload) > 0 {
		msg.Payload = payload
	}
	return msg, nil
}
