package dist

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
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
