// Package dist executes tiled bidiagonalization task graphs across a
// grid of nodes, owner-compute style: every task has one owning node
// (the block-cyclic distribution of its output tile), each node runs
// only the tasks it owns, and cross-node data dependencies become
// messages over a Transport.
//
// # Execution models
//
// There is one worker loop, sched.Runtime. A rank (nodeEngine) runs its
// share of the graph as an owned job on a runtime of its own, and adds
// what only a distributed rank needs: a NIC, a receiver, the gather, a
// stall watchdog and the comm accounting. A frame releases the remote
// producer's successors in the job: payload frames carry remote
// read-after-write edges, payload-free ordering frames WAR/WAW edges.
//
// ExecuteNode is the SPMD entry point for one rank of a multi-process
// run: every process builds the identical graph over its own full input
// copy, then executes only its owned tasks, exchanging tile regions
// through the configured Transport. With Gather set, non-root ranks
// stream their owned output tiles to rank 0 so the root holds the full
// factorized matrix.
//
// Execute (ExecuteCtx) is Grid.Nodes() of those ranks in one process
// over one transport and ONE graph, their results summed. It is the
// reference for communication accounting: its CommCount/CommVolume
// equal sched.SimulateDistributed's prediction for the same graph and
// grid by construction. Sharing an address space changes one thing: a
// frame's data is already in place when the frame arrives, so the
// receiving rank accounts the frame and takes its enables but does not
// restore the payload (rewriting those bytes would race the producer
// rank's own readers). Cancelling the context, or any rank failing,
// stops dispatch on every rank.
//
// # Transports
//
// Two Transport implementations exist, and the executor is bitwise
// deterministic across them (see TestExecutorParityLoopbackTCP):
//
//   - ChanTransport: one buffered channel per node, in-process. Used by
//     Execute and by single-process multi-node tests.
//   - TCPTransport: one process per rank, a full mesh of TCP
//     connections. Used by bidiagd's -node/-peers cluster mode.
//
// # TCP wire format
//
// Every connection opens with a handshake and then carries
// length-prefixed frames, all integers little-endian:
//
//	handshake:  "BDT1" magic (4 bytes) | int32 sender rank
//	clock sync: 8 × ( uint64 probe sequence → uint64 peer UnixNano echo )
//	frame:      uint32 length          (bytes after this field)
//	            int32  From | To | Producer | Bytes
//	            uint32 enable count    | int32 × count enabled task IDs
//	            payload                (rest of the frame)
//
// # Handshake clock sync
//
// The clock-sync rounds piggyback on the handshake, dialer-driven: the
// dialer writes an 8-byte probe, the acceptor echoes its clock as a
// uint64 UnixNano, and the dialer takes offset = peerNano − midpoint
// over the minimum-RTT round — the NTP estimator, whose error is
// bounded by ±RTT/2. Every rank dials every peer, so each transport
// finishes construction knowing its offset and RTT to all peers
// (ClockSyncs, the ClockSyncer optional interface). The cluster layer
// uses these offsets to express trace events recorded on different
// machines on the head's clock when merging a distributed trace.
//
// The payload is the exact byte string the producing handle's Snapshot
// serializer emitted (internal/core region payloads, column-major
// little-endian float64s), so a receiving rank restores the region
// bit-for-bit. Frames with Bytes == 0 are enable-only ordering edges
// and are excluded from communication accounting; negative Producer
// values are reserved for out-of-band control frames (gather, errors,
// cluster job dispatch).
//
// WireStats on a TCPTransport reports frames, total framed bytes
// (length prefix + header + enable list + payload), and payload bytes
// actually sent — the figures the comm-accounting tests reconcile
// against the model. The named optional interfaces WireStatser,
// LinkStatser, and ClockSyncer expose this telemetry through wrapping
// transports (FaultTransport and the cluster demux forward all three).
//
// # Comm tracing and trace-gather control frames
//
// When the executed graph carries an obs.Tracer, ExecuteNode records
// one OpSend event per frame its NIC hands to the transport (ring index
// rank·wpn+wpn) and one OpRecv event per frame its receiver acts on
// after dedup (ring index rank·wpn+wpn+1), carrying peer rank, wire and
// payload bytes, and the outbox queue wait. Execute's ranks share one
// tracer, where those indices are the next rank's worker rings, so a
// traced Execute records task events only. Self-sends never touch a
// wire and are excluded, so per-rank send-event byte sums equal the
// transport's WireStats counters exactly. With no tracer attached the
// frame paths stay on the pre-telemetry fast path behind a single flag
// check, mirroring sched.Graph.RunTask's discipline.
//
// The cluster layer (internal/cluster) defines one more out-of-band
// exchange on top of ProducerControl frames: after every job each peer
// rank ships rank 0 a "trace" control frame — the barrier that ends the
// job, and after a traced job the carrier of the rank's collected
// events, wire-stat deltas, and tracer origin, which the head aligns
// using the handshake clock offsets into one merged trace. The frame bodies are JSON, versioned by the cluster job
// protocol; see internal/cluster.
//
// # Fault injection
//
// FaultTransport wraps any Transport with deterministic fault
// injection — dropping, duplicating, or delaying data frames — so the
// executor's stall detection and receiver dedup are testable without
// real network faults.
package dist
