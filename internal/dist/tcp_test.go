package dist

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"testing"
	"time"
)

// FuzzReadFrame feeds arbitrary bytes to the TCP frame decoder: it must
// not panic, a frame it accepts must re-encode to the bytes it consumed,
// and what it allocates must be bounded by what it was sent — a length
// prefix may claim up to tcpMaxFrame (1 GiB) that never arrives.
func FuzzReadFrame(f *testing.F) {
	f.Add(appendFrame(nil, Message{From: 1, To: 2, Producer: 3, Bytes: 4, Payload: []byte("payload"), Enable: []int32{5, 6}}))
	f.Add(appendFrame(nil, Message{}))
	f.Add(binary.LittleEndian.AppendUint32(nil, tcpMaxFrame))
	f.Add(append(binary.LittleEndian.AppendUint32(nil, tcpMaxFrame), 1, 2, 3, 4, 5))
	f.Add(append(binary.LittleEndian.AppendUint32(nil, 3*frameChunk), make([]byte, frameChunk+100)...))
	f.Fuzz(func(t *testing.T, in []byte) {
		r := bytes.NewReader(in)
		var msg Message
		var err error
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		msg, err = readFrame(r)
		runtime.ReadMemStats(&after)
		if n, budget := after.TotalAlloc-before.TotalAlloc, uint64(2*len(in)+64<<10); n > budget {
			t.Fatalf("%d-byte input allocated %d bytes, budget %d", len(in), n, budget)
		}
		if err != nil {
			return
		}
		if got, want := appendFrame(nil, msg), in[:len(in)-r.Len()]; !bytes.Equal(got, want) {
			t.Fatalf("frame re-encodes to %x, read from %x", got, want)
		}
	})
}

// TestTCPDropsForgedFrames: the handshake names the peer, and a
// connection whose frame claims another sender, or a receiver other than
// this rank, is dropped at that frame — nothing it carries reaches the
// inbox, the frame after it included. The control connection shows a
// genuine frame on the same setup arrives.
func TestTCPDropsForgedFrames(t *testing.T) {
	lns := make([]net.Listener, 2)
	addrs := make([]string, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	// Rank 1 is played by hand: answer rank 0's dial, then send frames on
	// connections of its own.
	go func() {
		c, err := lns[1].Accept()
		if err != nil {
			return
		}
		var hello [8]byte
		if _, err := io.ReadFull(c, hello[:]); err == nil {
			clockServe(c, 5*time.Second)
		}
		io.Copy(io.Discard, c)
	}()
	defer lns[1].Close()
	tr, err := NewTCPTransport(context.Background(), 0, addrs, &TCPOptions{Listener: lns[0]})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	genuine := Message{From: 1, To: 0, Producer: 9, Enable: []int32{4}}
	cases := []struct {
		name   string
		frames []Message
		want   bool // the genuine frame arrives
	}{
		{"spoofed From", []Message{{From: 2, To: 0, Producer: 7}, genuine}, false},
		{"foreign To", []Message{{From: 1, To: 1, Producer: 7}, genuine}, false},
		{"control", []Message{genuine}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", addrs[0])
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			hello := binary.LittleEndian.AppendUint32([]byte(tcpMagic), 1)
			if _, err := conn.Write(hello); err != nil {
				t.Fatal(err)
			}
			if _, err := clockProbe(conn, 5*time.Second); err != nil {
				t.Fatal(err)
			}
			var wire []byte
			for _, m := range c.frames {
				wire = appendFrame(wire, m)
			}
			if _, err := conn.Write(wire); err != nil {
				t.Fatal(err)
			}
			select {
			case got := <-tr.Recv(0):
				if !c.want || got.Producer != genuine.Producer {
					t.Fatalf("inbox took %+v", got)
				}
			case <-time.After(300 * time.Millisecond):
				if c.want {
					t.Fatal("the genuine frame did not arrive")
				}
			}
		})
	}
}
