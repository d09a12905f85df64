package collector

import (
	"testing"
	"time"

	"repro/internal/core"
)

// TestExporterCoalesce pins the write-coalescing contract: below the
// threshold frames stay in the exporter (the collector sees nothing),
// crossing it flushes everything in one write, and Flush/Close drain
// whatever remains — with the collector's decoded totals identical to
// the immediate-write path.
func TestExporterCoalesce(t *testing.T) {
	tb := mustTestbench(t, 23)
	_, srv := newServedSink(t, tb, 2)
	open := func(coalesce int) *exporter {
		t.Helper()
		ex, err := dial(srv.Addr().String(), HelloFor(tb.Engine, 1, "coalesce-test"), coalesce)
		if err != nil {
			t.Fatal(err)
		}
		return ex
	}

	// A huge threshold: every Send stages, nothing hits the wire.
	ex := open(1 << 20)
	if err := ex.Send(tb.FlowBatch(1, 0, 50, nil, nil)); err != nil {
		t.Fatal(err)
	}
	if err := ex.Send(tb.FlowBatch(1, 1, 50, nil, nil)); err != nil {
		t.Fatal(err)
	}
	// The frames are accounted but withheld; give the collector a moment
	// to prove it received none of them.
	time.Sleep(20 * time.Millisecond)
	if got := srv.Stats().Packets; got != 0 {
		t.Fatalf("collector saw %d packets before flush, want 0", got)
	}
	if ex.packets != 100 {
		t.Fatalf("exporter accounted %d packets, want 100", ex.packets)
	}
	if err := ex.Flush(); err != nil {
		t.Fatal(err)
	}
	waitForPackets(t, srv, 100)
	if err := ex.Close(); err != nil {
		t.Fatal(err)
	}

	// A tiny threshold: the first staged frame crosses it and flushes
	// immediately — coalescing degenerates to immediate writes.
	ex = open(1)
	if err := ex.Send(tb.FlowBatch(1, 2, 50, nil, nil)); err != nil {
		t.Fatal(err)
	}
	waitForPackets(t, srv, 150)
	if err := ex.Close(); err != nil {
		t.Fatal(err)
	}

	// Close drains a partial coalescing buffer.
	ex = open(1 << 20)
	if err := ex.Send(tb.FlowBatch(1, 3, 25, nil, nil)); err != nil {
		t.Fatal(err)
	}
	if err := ex.Close(); err != nil {
		t.Fatal(err)
	}
	waitForPackets(t, srv, 175)
	shutdownServer(t, srv)
}

// TestStreamSteadyState runs the pintload -duration engine for a short
// burst against a live collector: every connection must report at least
// one full sweep of its flows, the collector must have ingested exactly
// the aggregate the loads report, and no packet may be lost or invented
// on the way through the parallel ingest path.
func TestStreamSteadyState(t *testing.T) {
	tb := mustTestbench(t, 29)
	const (
		conns    = 3
		flowsPer = 2
		pktsPer  = 100
	)
	_, srv := newServedSink(t, tb, 4)
	route := func(core.FlowKey) int { return 0 }
	loads, err := tb.StreamSteadyState([]string{srv.Addr().String()}, route, 0,
		conns, flowsPer, pktsPer, 64, 4096, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(loads) != conns {
		t.Fatalf("got %d loads, want %d", len(loads), conns)
	}
	var total uint64
	for i, l := range loads {
		if l.Exporter != uint64(i)+1 {
			t.Fatalf("load %d has exporter %d", i, l.Exporter)
		}
		if l.Packets < flowsPer*pktsPer {
			t.Fatalf("conn %d sent %d packets, want at least one sweep (%d)",
				l.Exporter, l.Packets, flowsPer*pktsPer)
		}
		if l.Bytes == 0 || l.Elapsed <= 0 || l.Mpkts() <= 0 {
			t.Fatalf("conn %d load not populated: %+v", l.Exporter, l)
		}
		total += l.Packets
	}
	waitForPackets(t, srv, total)
	if got := srv.Stats().Packets; got != total {
		t.Fatalf("collector ingested %d packets, exporters sent %d", got, total)
	}
	shutdownServer(t, srv)
}

// TestStreamOneSweepCoalesce pins the one-sweep (zero duration) mode
// pintload runs without -duration: it sends every flow exactly once, and
// a coalescing threshold changes only how frames are grouped into
// writes — the packet and wire-byte totals match immediate writes, and
// the collector ingests every packet.
func TestStreamOneSweepCoalesce(t *testing.T) {
	tb := mustTestbench(t, 31)
	const (
		conns    = 3
		flowsPer = 4
		pktsPer  = 100
	)
	route := func(core.FlowKey) int { return 0 }
	var wireBytes [2]uint64
	for i, coalesce := range []int{0, 64 << 10} {
		_, srv := newServedSink(t, tb, 2)
		loads, err := tb.StreamSteadyState([]string{srv.Addr().String()}, route, 0,
			conns, flowsPer, pktsPer, 64, coalesce, 0)
		if err != nil {
			t.Fatal(err)
		}
		var packets uint64
		for _, l := range loads {
			if l.Packets != flowsPer*pktsPer {
				t.Fatalf("coalesce %d: conn %d sent %d packets, want one sweep (%d)",
					coalesce, l.Exporter, l.Packets, flowsPer*pktsPer)
			}
			packets += l.Packets
			wireBytes[i] += l.Bytes
		}
		waitForPackets(t, srv, packets)
		shutdownServer(t, srv)
		if got := srv.Stats().Packets; got != conns*flowsPer*pktsPer {
			t.Fatalf("coalesce %d: collector ingested %d packets, want %d", coalesce, got, conns*flowsPer*pktsPer)
		}
	}
	if wireBytes[0] != wireBytes[1] {
		t.Fatalf("coalesced sweep sent %d wire bytes, immediate writes %d", wireBytes[1], wireBytes[0])
	}
}
