package collector

import (
	"fmt"
	"net"
	"time"

	"repro/internal/core"
	"repro/internal/wire"
)

// exporter is the switch side of one collector session: dial connects
// to the daemon and performs the wire.Hello handshake, then Send streams
// digest batches as checksummed frames. Connect opens one per fleet
// member; SendHandoff opens one for a resize hand-off.
//
// An exporter is not safe for concurrent use; each sending goroutine
// owns its own (each simulated switch owns one connection).
//
// With coalesce 0 every frame goes straight to the wire (TCP_NODELAY:
// lowest per-report latency, one syscall and often one small segment
// per frame). A positive threshold trades that latency for throughput
// by batching frames into fewer, larger writes (see WithCoalesce).
type exporter struct {
	conn    net.Conn
	scratch []byte // marshal + frame scratch, reused across Send calls
	packets uint64 // packets sent so far
	bytes   uint64 // wire bytes sent so far, frame headers included
	// coalesce > 0 buffers marshaled frames in pending until at least
	// that many bytes accumulate; 0 writes every frame immediately.
	coalesce int
	pending  []byte
}

// HelloFor builds the session handshake for an exporter compiled under
// eng's execution plan.
func HelloFor(eng *core.Engine, exporterID uint64, name string) wire.Hello {
	return wire.Hello{Exporter: exporterID, PlanHash: eng.PlanHash(), Name: name}
}

// handshakeTimeout bounds the exporter-side connect and handshake,
// mirroring the server's Config.HandshakeTimeout: dialing a blackholed
// address must not wait out the kernel's SYN retries, and dialing
// something that is not a collector (the HTTP port, say) must error, not
// hang waiting for an ack that will never come.
const handshakeTimeout = 10 * time.Second

// dial connects to a collector at addr and performs the handshake. It
// opens every exporter-side session, so it is the one place the
// handshake lives. coalesce is the write-coalescing threshold in bytes
// (values <= 0 write every frame immediately).
func dial(addr string, hello wire.Hello, coalesce int) (_ *exporter, err error) {
	conn, err := net.DialTimeout("tcp", addr, handshakeTimeout)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			conn.Close()
		}
	}()
	// Go's net.TCPConn disables Nagle by default, but the exporter's
	// latency story depends on it, so set it explicitly rather than
	// inheriting a default a future runtime could change. Exporters want
	// either immediate per-frame writes (NODELAY) or application-level
	// coalescing — never Nagle's ack-gated middle ground, which would
	// stall telemetry behind the collector's read cadence.
	if err := conn.(*net.TCPConn).SetNoDelay(true); err != nil {
		return nil, fmt.Errorf("collector: setting TCP_NODELAY: %w", err)
	}
	buf, err := wire.AppendHello(nil, hello)
	if err != nil {
		return nil, err
	}
	conn.SetDeadline(time.Now().Add(handshakeTimeout))
	if _, err := conn.Write(buf); err != nil {
		return nil, fmt.Errorf("collector: sending handshake: %w", err)
	}
	var ack [1]byte
	if _, err := conn.Read(ack[:]); err != nil {
		return nil, fmt.Errorf("collector: reading handshake ack: %w", err)
	}
	if err := wire.AckError(ack[0]); err != nil {
		return nil, err
	}
	conn.SetDeadline(time.Time{})
	return &exporter{conn: conn, scratch: buf[:0], coalesce: max(coalesce, 0)}, nil
}

// Send marshals one digest batch and writes it as a single frame — or,
// with coalescing on, stages it until the threshold fills. Empty batches
// are a no-op. When the collector's sink workers fall behind, the write
// blocks — TCP flow control carrying the sink's backpressure to the
// switch.
func (e *exporter) Send(batch []core.PacketDigest) error {
	if len(batch) == 0 {
		return nil
	}
	// Header, payload, and CRC are built in the scratch buffer in one
	// pass — no separate marshal buffer, no header+payload re-copy.
	frame, err := wire.AppendMarshalFrame(e.scratch[:0], batch)
	if err != nil {
		return err
	}
	e.scratch = frame[:0]
	e.packets += uint64(len(batch))
	e.bytes += uint64(len(frame))
	if e.coalesce > 0 {
		e.pending = append(e.pending, frame...)
		if len(e.pending) < e.coalesce {
			return nil
		}
		return e.Flush()
	}
	if _, err := e.conn.Write(frame); err != nil {
		return fmt.Errorf("collector: sending frame: %w", err)
	}
	return nil
}

// Flush writes any frames staged by coalescing. A no-op when nothing is
// pending (so it is always safe to call, coalescing or not).
func (e *exporter) Flush() error {
	if len(e.pending) == 0 {
		return nil
	}
	if _, err := e.conn.Write(e.pending); err != nil {
		return fmt.Errorf("collector: sending coalesced frames: %w", err)
	}
	e.pending = e.pending[:0]
	return nil
}

// Close drains any coalesced frames and ends the session; the collector
// sees a clean EOF at a frame boundary.
func (e *exporter) Close() error {
	err := e.Flush()
	if cerr := e.conn.Close(); err == nil {
		err = cerr
	}
	return err
}
