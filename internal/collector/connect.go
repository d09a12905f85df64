package collector

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/wire"
)

// Connect is the one entry point for exporter-session construction:
// single-node and fleet exporters share it, mirroring the server side's
// collector.New(engine, WithSink(...)) pattern:
//
//	fe, err := collector.Connect(tb.Engine, 7, "tor-7",
//	        collector.WithFleetMap(fm),          // addrs + routing + epoch from the map
//	        collector.WithRosterFetch(fetch),    // live re-routing across resizes
//	        collector.WithTenant("team-a"),
//	        collector.WithCoalesce(16<<10))
//
// With WithRosterFetch set, the session survives fleet resizes: a
// collector that moves to a new epoch nudges the session
// (wire.NudgeReroute) or refuses the next dial (wire.ErrEpochMismatch —
// the recoverable ack); either way the exporter flushes what it sent,
// closes cleanly (so nothing in flight is lost), polls the fetch until a
// newer fleet map appears, re-partitions its unsent routing buffers
// under the new map, and re-handshakes at the new epoch.

// FleetRoster is the collector-tier view of a fleet configuration: an
// epoch, the members' ingest addresses, and the flow→member routing.
// internal/federation's FleetMap implements it; the indirection keeps the
// dependency arrow pointing federation→collector.
type FleetRoster interface {
	// FleetEpoch is the partitioning epoch every session handshake must
	// carry.
	FleetEpoch() uint64
	// IngestAddrs lists the members' exporter-session TCP addresses, in
	// routing order.
	IngestAddrs() []string
	// FlowHome maps a flow to its home member (an index into
	// IngestAddrs).
	FlowHome(core.FlowKey) int
}

// dialConfig is the resolved form of Connect's options.
type dialConfig struct {
	addrs    []string
	route    func(core.FlowKey) int
	epoch    uint64
	epochSet bool
	tenant   string
	coalesce int
	batch    int
	roster   FleetRoster
	fetch    func() (FleetRoster, error)
}

// DialOption configures Connect.
type DialOption func(*dialConfig)

// WithAddrs sets the collector addresses explicitly (one address = a
// standalone collector; several require WithRoute or WithFleetMap for
// the flow routing).
func WithAddrs(addrs ...string) DialOption {
	return func(c *dialConfig) { c.addrs = append([]string(nil), addrs...) }
}

// WithRoute sets the flow→member routing function explicitly.
func WithRoute(route func(core.FlowKey) int) DialOption {
	return func(c *dialConfig) { c.route = route }
}

// WithSessionEpoch sets the cluster epoch the session handshake carries
// (wire.Hello.Epoch); it overrides the roster's epoch when both are
// given. The server side's counterpart is collector.WithEpoch.
func WithSessionEpoch(epoch uint64) DialOption {
	return func(c *dialConfig) { c.epoch, c.epochSet = epoch, true }
}

// WithTenant labels the session with a QoS tenant (wire.Hello.Tenant).
func WithTenant(tenant string) DialOption {
	return func(c *dialConfig) { c.tenant = tenant }
}

// WithCoalesce sets the per-session write-coalescing threshold in bytes.
// With n > 0, Send buffers marshaled frames until at least n bytes are
// pending, then writes them in one syscall; Flush (and Close) drain the
// remainder. With n <= 0 (the default) every frame is written
// immediately.
//
// The trade-off: coalescing cuts syscalls and small TCP segments —
// throughput for high-rate exporters feeding many small frames — but a
// buffered frame is invisible to the collector until the threshold
// fills or Flush runs, so per-report latency rises by up to one
// coalescing window. Pick immediate writes for interactive or sparse
// telemetry, coalescing for bulk replay and load generation. A few kB
// (wire MTU-to-64kB) is the useful range; the frame that crosses the
// threshold is never split.
func WithCoalesce(bytes int) DialOption {
	return func(c *dialConfig) { c.coalesce = bytes }
}

// WithFrameBatch sets the per-member frame size in packets (default
// 256).
func WithFrameBatch(n int) DialOption {
	return func(c *dialConfig) { c.batch = n }
}

// WithFleetMap derives addresses, routing, and epoch from a fleet map
// (federation.FleetMap implements FleetRoster). Explicit WithAddrs /
// WithRoute / WithSessionEpoch options override individual pieces.
func WithFleetMap(roster FleetRoster) DialOption {
	return func(c *dialConfig) { c.roster = roster }
}

// WithRosterFetch enables live re-routing: fetch is polled for the
// current fleet map whenever the session learns its epoch went stale
// (reroute nudge on a live session, or wire.ErrEpochMismatch on a dial).
// Typically the fetch GETs the pintgate frontend's /fleetmap endpoint.
func WithRosterFetch(fetch func() (FleetRoster, error)) DialOption {
	return func(c *dialConfig) { c.fetch = fetch }
}

// Connect opens exporter sessions to a collector fleet (or a single
// collector) and returns the routing exporter. See the file comment for
// the option surface; engine supplies the plan hash the handshake pins.
func Connect(engine *core.Engine, exporterID uint64, name string, opts ...DialOption) (*FleetExporter, error) {
	if engine == nil {
		return nil, fmt.Errorf("collector: nil engine")
	}
	var cfg dialConfig
	for _, o := range opts {
		if o != nil {
			o(&cfg)
		}
	}
	if cfg.roster != nil {
		if cfg.addrs == nil {
			cfg.addrs = cfg.roster.IngestAddrs()
		}
		if cfg.route == nil {
			cfg.route = cfg.roster.FlowHome
		}
		if !cfg.epochSet {
			cfg.epoch = cfg.roster.FleetEpoch()
		}
	}
	if len(cfg.addrs) == 0 {
		return nil, fmt.Errorf("collector: Connect needs collector addresses (WithAddrs or WithFleetMap)")
	}
	if cfg.route == nil {
		if len(cfg.addrs) != 1 {
			return nil, fmt.Errorf("collector: %d-member fleet needs routing (WithFleetMap or WithRoute)", len(cfg.addrs))
		}
		cfg.route = func(core.FlowKey) int { return 0 }
	}
	if cfg.batch < 1 {
		cfg.batch = 256
	}
	hello := HelloFor(engine, exporterID, name)
	hello.Epoch = cfg.epoch
	hello.Tenant = cfg.tenant
	f := &FleetExporter{
		route:    cfg.route,
		batch:    cfg.batch,
		hello:    hello,
		addrs:    append([]string(nil), cfg.addrs...),
		coalesce: cfg.coalesce,
		fetch:    cfg.fetch,
	}
	// With a roster fetch an initial epoch refusal is recovered by
	// fetching a newer map and retrying.
	deadline := time.Now().Add(rerouteDeadline)
	for {
		err := f.dialAll()
		if err == nil {
			return f, nil
		}
		if f.fetch == nil || !errors.Is(err, wire.ErrEpochMismatch) || !time.Now().Before(deadline) {
			return nil, err
		}
		// Stale epoch on first contact: the fleet resized between the
		// caller obtaining its map and this dial. Recover exactly like a
		// live session would.
		if perr := f.pollRoster(deadline); perr != nil {
			return nil, fmt.Errorf("%w (and fetching a newer fleet map failed: %v)", err, perr)
		}
	}
}

// rerouteDeadline bounds how long a rerouting exporter polls the roster
// fetch for a newer fleet map before giving up. Resizes publish the new
// map only after state migration completes, so the poll spans the whole
// hand-off.
const rerouteDeadline = 60 * time.Second

// dialAll opens one session per member address under the exporter's
// current hello/epoch, replacing f.exps. Any refusal closes what was
// opened and fails the dial.
func (f *FleetExporter) dialAll() error {
	f.exps = make([]*exporter, len(f.addrs))
	if len(f.bufs) != len(f.addrs) {
		f.bufs = make([][]core.PacketDigest, len(f.addrs))
		for i := range f.bufs {
			f.bufs[i] = make([]core.PacketDigest, 0, f.batch)
		}
	}
	gen := f.gen.Add(1)
	for i, addr := range f.addrs {
		ex, err := dial(addr, f.hello, f.coalesce)
		if err != nil {
			f.closeSessions()
			return fmt.Errorf("collector: fleet member %d (%s): %w", i, addr, err)
		}
		f.exps[i] = ex
		if f.fetch != nil {
			go f.watch(ex, gen)
		}
	}
	return nil
}

// watch blocks reading the member session for the reroute nudge. The
// server→exporter direction carries nothing after the handshake ack, so
// any byte is a signal (and only wire.NudgeReroute is defined); a read
// error just means the session ended. The nudge records the generation
// the session belongs to — never moving it backwards — so a late nudge
// from a session rehome already replaced is inert.
func (f *FleetExporter) watch(ex *exporter, gen uint64) {
	buf := make([]byte, 1)
	for {
		n, err := ex.conn.Read(buf)
		if n > 0 {
			if buf[0] == wire.NudgeReroute {
				for {
					cur := f.nudgedGen.Load()
					if gen <= cur || f.nudgedGen.CompareAndSwap(cur, gen) {
						break
					}
				}
			}
			return
		}
		if err != nil {
			return
		}
	}
}

// RerouteRequested reports whether a collector has signalled that the
// exporter's epoch went stale (the next Send, or an explicit Poke, will
// re-route).
func (f *FleetExporter) RerouteRequested() bool { return f.rerouteRequested() }

// Epoch returns the cluster epoch the live sessions were handshaked at.
func (f *FleetExporter) Epoch() uint64 { return f.hello.Epoch }

// Poke services a pending reroute without sending anything: if a nudge
// arrived, the exporter flushes, closes, fetches the new fleet map, and
// re-handshakes — exactly what the next Send would do. Harnesses that
// pause between sends call this so a mid-stream resize can finish while
// they wait (the resize coordinator waits for stale sessions to close).
func (f *FleetExporter) Poke() error {
	if f.fetch != nil && f.rerouteRequested() {
		return f.rehome()
	}
	return nil
}

// rehome is the live re-routing path: flush and cleanly close every
// session (a clean close means the collector ingested every byte sent —
// zero loss), poll the roster fetch until a map with a *newer* epoch
// appears (the coordinator publishes it only after state hand-off
// completes), re-partition the unsent routing buffers under the new map,
// and re-handshake everywhere at the new epoch.
func (f *FleetExporter) rehome() error {
	// The pending nudge is consumed implicitly: dialAll below bumps the
	// session generation, which invalidates every nudge recorded against
	// the sessions being closed here.
	// Unsent routed packets move to the new partitioning; drain them out
	// of the per-member buffers first.
	var pending []core.PacketDigest
	for n := range f.bufs {
		pending = append(pending, f.bufs[n]...)
		f.bufs[n] = f.bufs[n][:0]
	}
	// Close cleanly: each session's coalescing buffer is flushed before
	// the FIN, so everything already handed to a session is ingested.
	if err := f.closeSessions(); err != nil {
		return fmt.Errorf("collector: reroute: closing stale sessions: %w", err)
	}
	deadline := time.Now().Add(rerouteDeadline)
	if err := f.pollRoster(deadline); err != nil {
		return err
	}
	for {
		err := f.dialAll()
		if err == nil {
			break
		}
		if !errors.Is(err, wire.ErrEpochMismatch) || !time.Now().Before(deadline) {
			return err
		}
		// Raced with yet another resize — fetch again.
		if perr := f.pollRoster(deadline); perr != nil {
			return fmt.Errorf("%w (and fetching a newer fleet map failed: %v)", err, perr)
		}
	}
	// Re-partition: conservation, not loss — every unsent packet is
	// re-routed to its (possibly new) home under the new map.
	for i := range pending {
		n := f.route(pending[i].Flow)
		if n < 0 || n >= len(f.exps) {
			return fmt.Errorf("collector: reroute sent flow %v to member %d of %d", pending[i].Flow, n, len(f.exps))
		}
		f.bufs[n] = append(f.bufs[n], pending[i])
	}
	return nil
}

// pollRoster fetches the fleet map until its epoch moves past the
// sessions' current epoch, then installs the new addresses, routing, and
// epoch on the exporter.
func (f *FleetExporter) pollRoster(deadline time.Time) error {
	for {
		roster, err := f.fetch()
		if err == nil && roster != nil && roster.FleetEpoch() != f.hello.Epoch {
			addrs := roster.IngestAddrs()
			if len(addrs) == 0 {
				return fmt.Errorf("collector: fetched fleet map (epoch %d) has no members", roster.FleetEpoch())
			}
			f.addrs = append(f.addrs[:0], addrs...)
			f.route = roster.FlowHome
			f.hello.Epoch = roster.FleetEpoch()
			// Member count may have changed; dialAll rebuilds the buffers.
			f.bufs = nil
			return nil
		}
		if !time.Now().Before(deadline) {
			if err != nil {
				return fmt.Errorf("collector: reroute: fleet map fetch: %w", err)
			}
			return fmt.Errorf("collector: reroute: no newer fleet map appeared within %v", rerouteDeadline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// closeSessions ends every member session (flushing their coalescing
// buffers) without touching the routing buffers.
func (f *FleetExporter) closeSessions() error {
	var err error
	for i, ex := range f.exps {
		if ex == nil {
			continue
		}
		if cerr := ex.Close(); err == nil {
			err = cerr
		}
		f.exps[i] = nil
	}
	return err
}
