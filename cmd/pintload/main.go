// Command pintload is the collector's load generator: it simulates N
// switches, each encoding its flows' digests through the engine's batch
// encoder (Engine.EncodeHopBatch over every hop of a deterministic
// fat-tree path) and streaming them as checksummed frames over its own
// real TCP connection(s) to a running pintd — or to a whole fleet.
//
// Usage:
//
//	pintload -addr 127.0.0.1:9777                      default deployment (4×8×1000)
//	pintload -addr :9777 -exporters 16 -flows 64       16 switches, 64 flows each
//	pintload -addr :9777 -pkts 5000 -batch 512         5000 pkts/flow, 512/frame
//	pintload -addr :9777 -seed 3 -k 7                  must match pintd's -seed/-k
//	pintload -addr 127.0.0.1:9777,127.0.0.1:9877 -epoch 7
//	                                                   federated: route each flow to its
//	                                                   consistent-hash home; all daemons
//	                                                   must run the same -epoch
//	pintload -gate http://127.0.0.1:9700               elastic: fetch the fleet map from
//	                                                   pintgate's /fleetmap, route by its
//	                                                   epoch, and re-home live on resize
//	pintload -addr :9777 -duration 10s                 steady state: replay at full rate
//	                                                   for 10s, report per-connection and
//	                                                   aggregate Mpkt/s
//	pintload -addr :9777 -duration 10s -coalesce 16384 coalesce frames into >=16kB writes
//	pintload -addr :9777 -tenant team-a                label every session with a QoS tenant
//
// With a comma-separated -addr list every simulated switch opens one
// session per fleet member and routes each flow to its home collector by
// consistent hash over the address list — so all of a flow's digests land
// on one node and per-flow decode state never splits. Every component of
// one deployment must pass the identical list (order included) and the
// same -epoch; a daemon on a different epoch refuses the session.
//
// It reports wall clock, pkts/s, and wire bytes/pkt when every exporter
// has finished. The plan seed and hop count must match the daemons' —
// the session handshake refuses mismatched exporters.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"
	"time"

	"repro/internal/collector"
	"repro/internal/core"
	"repro/internal/federation"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9777", "pintd exporter-session address, or a comma-separated fleet list")
	gate := flag.String("gate", "", "pintgate base URL: fetch the fleet map from its /fleetmap and follow live resizes (overrides -addr and -epoch)")
	exporters := flag.Int("exporters", 4, "simulated switches (one TCP connection each, per fleet member)")
	flows := flag.Int("flows", 8, "flows per exporter")
	pkts := flag.Int("pkts", 1000, "packets per flow")
	batch := flag.Int("batch", 256, "packets per frame")
	seed := flag.Uint64("seed", 1, "testbench plan seed (must match pintd)")
	k := flag.Int("k", 5, "flow hop count (must match pintd)")
	epoch := flag.Uint64("epoch", 0, "cluster partitioning epoch (must match every pintd; 0 = standalone)")
	duration := flag.Duration("duration", 0, "steady-state mode: replay the pre-encoded deployment at full rate for this long (0 = one-shot)")
	coalesce := flag.Int("coalesce", 0, "write-coalescing threshold in bytes per session (0 = TCP_NODELAY immediate writes)")
	tenant := flag.String("tenant", "", "QoS tenant label carried in every session handshake ('' = default tenant, v2 handshake)")
	flag.Parse()

	log.SetFlags(0)
	tb, err := collector.NewTestbench(*seed, *k)
	if err != nil {
		log.Fatalf("pintload: %v", err)
	}
	tb.Tenant = *tenant
	var (
		addrs  []string
		route  func(core.FlowKey) int
		epochV = *epoch
	)
	if *gate != "" {
		// Gate mode: the fleet map is the source of truth — addresses,
		// routing, and epoch come from it, and the fetch stays installed
		// so every session follows a mid-run resize.
		fetch := fleetMapFetch(*gate)
		tb.Fetch = fetch
		roster, err := fetch()
		if err != nil {
			log.Fatalf("pintload: fetching fleet map: %v", err)
		}
		addrs, route, epochV = roster.IngestAddrs(), roster.FlowHome, roster.FleetEpoch()
	} else {
		for _, a := range strings.Split(*addr, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
		part, err := federation.NewPartitioner(addrs)
		if err != nil {
			log.Fatalf("pintload: %v", err)
		}
		route = part.Home
	}
	fmt.Printf("pintload: %d exporters x %d flows x %d packets -> %s (plan 0x%016x, epoch %d)\n",
		*exporters, *flows, *pkts, strings.Join(addrs, " + "), tb.Engine.PlanHash(), epochV)
	if *duration > 0 {
		fmt.Printf("pintload: steady state for %v (coalesce %d bytes)\n", *duration, *coalesce)
	}
	start := time.Now()
	loads, err := tb.StreamSteadyState(addrs, route, epochV, *exporters, *flows, *pkts, *batch, *coalesce, *duration)
	if err != nil {
		log.Fatalf("pintload: %v", err)
	}
	elapsed := time.Since(start)
	// In -duration mode the report breaks the aggregate down per
	// connection — the numbers that show whether the collector's parallel
	// ingest keeps every pipe busy or one hot shard is back-pressuring a
	// subset of them.
	var packets, bytes uint64
	var longest time.Duration
	for _, l := range loads {
		if *duration > 0 {
			fmt.Printf("pintload:   conn %-3d %12d pkts  %14d bytes  %8.3f Mpkt/s\n",
				l.Exporter, l.Packets, l.Bytes, l.Mpkts())
		}
		packets += l.Packets
		bytes += l.Bytes
		longest = max(longest, l.Elapsed)
	}
	if *duration > 0 {
		fmt.Printf("pintload: aggregate %d packets (%d wire bytes) in %v\n",
			packets, bytes, longest.Round(time.Millisecond))
		fmt.Printf("pintload: %.3f Mpkt/s aggregate, %.2f bytes/pkt on the wire\n",
			float64(packets)/longest.Seconds()/1e6, float64(bytes)/float64(packets))
		return
	}
	fmt.Printf("pintload: sent %d packets (%d wire bytes) in %v\n", packets, bytes, elapsed.Round(time.Millisecond))
	fmt.Printf("pintload: %.0f pkts/s, %.2f bytes/pkt on the wire\n",
		float64(packets)/elapsed.Seconds(), float64(bytes)/float64(packets))
}

// fleetMapFetch returns a roster fetch that GETs the gate's /fleetmap —
// the closure the exporter sessions poll when a resize fences them out.
func fleetMapFetch(gate string) func() (collector.FleetRoster, error) {
	base := strings.TrimRight(gate, "/")
	if !strings.HasPrefix(base, "http://") && !strings.HasPrefix(base, "https://") {
		base = "http://" + base
	}
	return func() (collector.FleetRoster, error) {
		resp, err := http.Get(base + "/fleetmap")
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("%s /fleetmap: %s", base, resp.Status)
		}
		return federation.ParseFleetMap(body)
	}
}
