package collector

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/wire"
)

// This file is the exporter side of a federated collector fleet: one
// logical switch session fanned out over N collector daemons, each digest
// routed to its flow's home collector so per-flow decode state never
// splits across nodes. The routing function is injected (the fleet
// partitioner lives in internal/federation, which builds on this
// package), keeping the dependency arrow pointing one way.

// FleetExporter streams digest batches to a fleet of collectors, routing
// every packet to its flow's home node. It owns one session per fleet
// member, all opened with the same Hello (exporter ID, plan hash, and —
// critically — cluster epoch; a member on a different epoch refuses the
// whole fleet session). It is not safe for concurrent use.
type FleetExporter struct {
	exps  []*exporter
	route func(core.FlowKey) int
	bufs  [][]core.PacketDigest
	batch int
	// hello is the template every member session handshakes with; its
	// Epoch field tracks the fleet epoch the sessions are currently at
	// (rehome advances it).
	hello    wire.Hello
	addrs    []string
	coalesce int
	// fetch, when non-nil, enables live re-routing across fleet resizes
	// (see Connect's WithRosterFetch). gen counts session generations
	// (dialAll bumps it); nudgedGen latches the generation a collector's
	// reroute signal arrived at. A nudge only triggers a rehome while its
	// generation is still live — each exporter holds one session per
	// member and the fence nudges all of them, so late duplicates from an
	// already-replaced generation must not re-route the new sessions.
	fetch     func() (FleetRoster, error)
	gen       atomic.Uint64
	nudgedGen atomic.Uint64
}

// rerouteRequested reports whether a nudge from the *current* session
// generation is pending.
func (f *FleetExporter) rerouteRequested() bool {
	g := f.gen.Load()
	return g != 0 && f.nudgedGen.Load() == g
}

// Members returns the fleet size.
func (f *FleetExporter) Members() int { return len(f.exps) }

// Send routes every packet of batch to its flow's home member, framing
// and transmitting each member's buffer whenever it fills. Packet order
// is preserved per flow (a flow has exactly one home and one TCP stream),
// which is all the recording tier's determinism needs.
func (f *FleetExporter) Send(batch []core.PacketDigest) error {
	if f.fetch != nil && f.rerouteRequested() {
		if err := f.rehome(); err != nil {
			return err
		}
	}
	for i := range batch {
		n := f.route(batch[i].Flow)
		if n < 0 || n >= len(f.exps) {
			return fmt.Errorf("collector: route sent flow %v to member %d of %d", batch[i].Flow, n, len(f.exps))
		}
		f.bufs[n] = append(f.bufs[n], batch[i])
		if len(f.bufs[n]) >= f.batch {
			if err := f.exps[n].Send(f.bufs[n]); err != nil {
				return err
			}
			f.bufs[n] = f.bufs[n][:0]
		}
	}
	return nil
}

// Flush transmits every member's partial routing buffer, then drains
// each session's coalescing buffer, so everything routed so far is on
// the wire when Flush returns.
func (f *FleetExporter) Flush() error {
	for n := range f.bufs {
		if f.exps[n] == nil {
			continue
		}
		if len(f.bufs[n]) > 0 {
			if err := f.exps[n].Send(f.bufs[n]); err != nil {
				return err
			}
			f.bufs[n] = f.bufs[n][:0]
		}
		if err := f.exps[n].Flush(); err != nil {
			return err
		}
	}
	return nil
}

// Packets sums the packets sent across all member sessions.
func (f *FleetExporter) Packets() uint64 {
	var n uint64
	for _, ex := range f.exps {
		if ex != nil {
			n += ex.packets
		}
	}
	return n
}

// Bytes sums the wire bytes sent across all member sessions.
func (f *FleetExporter) Bytes() uint64 {
	var n uint64
	for _, ex := range f.exps {
		if ex != nil {
			n += ex.bytes
		}
	}
	return n
}

// Close flushes the buffers and ends every member session, returning the
// first error.
func (f *FleetExporter) Close() error {
	err := f.Flush()
	for _, ex := range f.exps {
		if ex == nil {
			continue
		}
		if cerr := ex.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// ExporterLoad is one connection's contribution to a StreamSteadyState
// run: what it sent, and over how long, so callers can report
// per-connection and aggregate rates.
type ExporterLoad struct {
	Exporter uint64
	Packets  uint64
	Bytes    uint64
	Elapsed  time.Duration
}

// Mpkts returns the connection's packet rate in Mpkt/s.
func (l ExporterLoad) Mpkts() float64 {
	if l.Elapsed <= 0 {
		return 0
	}
	return float64(l.Packets) / l.Elapsed.Seconds() / 1e6
}

// StreamSteadyState streams the (nExporters × flowsPer × pktsPer)
// testbench deployment: one concurrent fleet session per exporter, each
// flow routed to route(flow)'s collector under the given cluster epoch
// (route may be nil with a single address), digests framed in chunks of
// batch packets. coalesce > 0 sets each session's write-coalescing
// threshold in bytes (see WithCoalesce).
//
// A zero duration sends exactly one sweep: every flow once, encoded as
// it is sent. A positive duration replays for (at least) that long: each
// exporter pre-encodes its flows once, then sweeps them until the
// deadline, so the timed loop measures the transmit + ingest path, not
// encoding. The deadline is checked between sweeps. Every exporter
// flushes before its counters are read, so the returned loads are exact.
// Results are ordered by exporter ID.
func (tb *Testbench) StreamSteadyState(addrs []string, route func(core.FlowKey) int, epoch uint64,
	nExporters, flowsPer, pktsPer, batch, coalesce int, duration time.Duration) ([]ExporterLoad, error) {
	if err := ValidateShape(nExporters, flowsPer, pktsPer); err != nil {
		return nil, err
	}
	if batch < 1 || batch > pktsPer {
		batch = pktsPer
	}
	deadline := time.Now().Add(duration)
	loads := make([]ExporterLoad, nExporters)
	expErrs := make([]error, nExporters)
	var wg sync.WaitGroup
	for e := 0; e < nExporters; e++ {
		wg.Add(1)
		go func(e int) {
			defer wg.Done()
			expErrs[e] = func() error {
				exp := uint64(e) + 1
				fe, err := Connect(tb.Engine, exp, fmt.Sprintf("load-%d", exp),
					WithAddrs(addrs...), WithRoute(route), WithSessionEpoch(epoch),
					WithTenant(tb.Tenant), WithFrameBatch(batch), WithCoalesce(coalesce),
					WithRosterFetch(tb.Fetch))
				if err != nil {
					return err
				}
				vals := make([]core.HopValues, pktsPer)
				var encoded [][]core.PacketDigest
				if duration > 0 {
					encoded = make([][]core.PacketDigest, flowsPer)
					for f := range encoded {
						encoded[f] = tb.FlowBatch(exp, f, pktsPer, nil, vals)
					}
				}
				start := time.Now()
				var pkts []core.PacketDigest
				for ok := true; ok; ok = time.Now().Before(deadline) {
					for f := 0; f < flowsPer; f++ {
						if encoded != nil {
							pkts = encoded[f]
						} else {
							pkts = tb.FlowBatch(exp, f, pktsPer, pkts, vals)
						}
						if err := fe.Send(pkts); err != nil {
							fe.Close()
							return err
						}
					}
				}
				if err := fe.Flush(); err != nil {
					fe.Close()
					return err
				}
				loads[e] = ExporterLoad{
					Exporter: exp,
					Packets:  fe.Packets(),
					Bytes:    fe.Bytes(),
					Elapsed:  time.Since(start),
				}
				return fe.Close()
			}()
		}(e)
	}
	wg.Wait()
	for e, err := range expErrs {
		if err != nil {
			return loads, fmt.Errorf("collector: exporter %d: %w", e+1, err)
		}
	}
	return loads, nil
}
