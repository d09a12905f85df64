package core_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"testing"

	"repro/internal/collector"
	"repro/internal/core"
	"repro/internal/hash"
)

// runsDiffPlan compiles an underfull plan over all five query kinds: the
// largest frequency is 0.8, so about a fifth of the packets carry no
// query set at all.
func runsDiffPlan(t *testing.T) (*core.Engine, []core.Query) {
	t.Helper()
	master := hash.Seed(0x5EED)
	universe := make([]uint64, 32)
	for i := range universe {
		universe[i] = uint64(0xAB00 + i*3)
	}
	cfg, err := core.DefaultPathConfig(4, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	path, err := core.NewPathQuery("path", cfg, 0.8, master, universe)
	if err != nil {
		t.Fatal(err)
	}
	lat, err := core.NewLatencyQuery("lat", 8, 0.04, 0.7, master)
	if err != nil {
		t.Fatal(err)
	}
	util, err := core.NewUtilQuery("util", 8, 0.025, 0.2, 1000, master)
	if err != nil {
		t.Fatal(err)
	}
	freq, err := core.NewFreqQuery("freq", 4, 0.3, master)
	if err != nil {
		t.Fatal(err)
	}
	cnt, err := core.NewCountQuery("cnt", 4, 0.5, 0.2, master)
	if err != nil {
		t.Fatal(err)
	}
	queries := []core.Query{path, lat, util, freq, cnt}
	eng, err := core.Compile(queries, 32, master.Derive(1))
	if err != nil {
		t.Fatal(err)
	}
	return eng, queries
}

// runsDiffStream builds a seeded stream of runs of 1 to 300 packets over
// a pool of flows that recur non-contiguously; each flow's path length
// changes now and then (longer and shorter). Digests are encoded with
// EncodeHopBatch, so packets carry their cached query-set selection.
func runsDiffStream(eng *core.Engine, seed uint64, nPkts int) []core.PacketDigest {
	const nFlows, maxK = 12, 8
	rng := hash.NewRNG(seed)
	pathLen := make([]int, nFlows)
	for f := range pathLen {
		pathLen[f] = 1 + rng.Intn(maxK)
	}
	pkts := make([]core.PacketDigest, 0, nPkts)
	for len(pkts) < nPkts {
		f := rng.Intn(nFlows)
		if rng.Intn(4) == 0 {
			pathLen[f] = 1 + rng.Intn(maxK)
		}
		n := 1 + rng.Intn(8)
		if rng.Intn(3) == 0 {
			n = 1 + rng.Intn(300)
		}
		for i := 0; i < n && len(pkts) < nPkts; i++ {
			k := pathLen[f]
			if rng.Intn(50) == 0 { // a path change mid-run
				k = 1 + rng.Intn(maxK)
			}
			pkts = append(pkts, core.PacketDigest{Flow: core.FlowKey(100 + f), PktID: rng.Uint64(), PathLen: k})
		}
	}
	var sub []core.PacketDigest
	var vals []core.HopValues
	for hop := 1; hop <= maxK; hop++ {
		sub, vals = sub[:0], vals[:0]
		for i := range pkts {
			if pkts[i].PathLen >= hop {
				h := hash.Seed(seed).Hash2(pkts[i].PktID, uint64(hop))
				sub = append(sub, pkts[i])
				vals = append(vals, core.HopValues{
					SwitchID:   0xAB00 + (uint64(pkts[i].Flow)+uint64(hop))%32*3,
					LatencyNs:  1000 + h%100000,
					Util:       1 + h%1500,
					FreqValue:  h % 8,
					CountFired: h % 3,
				})
			}
		}
		eng.EncodeHopBatch(hop, sub, vals)
		j := 0
		for i := range pkts {
			if pkts[i].PathLen >= hop {
				pkts[i] = sub[j]
				j++
			}
		}
	}
	return pkts
}

// TestRecordBatchRunsMatchPerPacket is the run-grouped record path's
// differential oracle: RecordBatch over arbitrary batch splits of a
// run-shaped stream and Record called once per packet leave identical
// flow sets and eviction victims after every batch, byte-identical
// per-flow state, and byte-identical answers — over raw, KLL and
// sliding-window latency storage, with and without a flow bound.
func TestRecordBatchRunsMatchPerPacket(t *testing.T) {
	eng, queries := runsDiffPlan(t)
	storages := []struct {
		name            string
		sketch, buckets int
		span            uint64
	}{
		{"raw", 0, 0, 0},
		{"kll", 32, 0, 0},
		{"window", 32, 4, 200},
	}
	for _, st := range storages {
		for _, maxFlows := range []int{0, 5} {
			for _, seed := range []uint64{1, 2, 3} {
				t.Run(fmt.Sprintf("%s/maxflows=%d/seed=%d", st.name, maxFlows, seed), func(t *testing.T) {
					stream := runsDiffStream(eng, seed, 6000)
					mk := func() *core.Recording {
						rec, err := core.NewRecordingSeeded(eng, st.sketch, hash.Seed(seed))
						if err != nil {
							t.Fatal(err)
						}
						rec.WindowBuckets, rec.WindowSpan, rec.MaxFlows = st.buckets, st.span, maxFlows
						return rec
					}
					perPkt, batched := mk(), mk()
					seen := map[core.FlowKey]bool{}
					rng := hash.NewRNG(seed ^ 0xBA7C)
					for off := 0; off < len(stream); {
						end := off + 1 + rng.Intn(700)
						if end > len(stream) {
							end = len(stream)
						}
						if maxFlows > 0 && off >= len(stream)/2 {
							// Lowering the bound mid-stream makes one run
							// evict several flows, one per packet.
							perPkt.MaxFlows, batched.MaxFlows = maxFlows-2, maxFlows-2
						}
						for _, p := range stream[off:end] {
							seen[p.Flow] = true
							if err := perPkt.Record(p.Flow, p.PathLen, p.PktID, p.Digest); err != nil {
								t.Fatal(err)
							}
						}
						if err := batched.RecordBatch(stream[off:end]); err != nil {
							t.Fatal(err)
						}
						if a, b := fmt.Sprint(perPkt.Flows()), fmt.Sprint(batched.Flows()); a != b {
							t.Fatalf("after packet %d: tracked flows %s per packet, %s batched", end, a, b)
						}
						off = end
					}
					if maxFlows > 0 && len(seen) <= maxFlows {
						t.Fatalf("stream of %d flows never exercises MaxFlows=%d", len(seen), maxFlows)
					}
					for _, flow := range batched.Flows() {
						a, err := perPkt.AppendFlowState(nil, queries, flow)
						if err != nil {
							t.Fatal(err)
						}
						b, err := batched.AppendFlowState(nil, queries, flow)
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(a, b) {
							t.Fatalf("flow %d: flow state differs between per-packet and batched recording", flow)
						}
					}
					if maxFlows == 0 {
						// Without eviction a flow's state depends on its own
						// packets alone: record each flow by itself as the
						// independent reference.
						for _, flow := range batched.Flows() {
							alone := mk()
							for _, p := range stream {
								if p.Flow == flow {
									if err := alone.Record(p.Flow, p.PathLen, p.PktID, p.Digest); err != nil {
										t.Fatal(err)
									}
								}
							}
							a, err := alone.AppendFlowState(nil, queries, flow)
							if err != nil {
								t.Fatal(err)
							}
							b, err := batched.AppendFlowState(nil, queries, flow)
							if err != nil {
								t.Fatal(err)
							}
							if !bytes.Equal(a, b) {
								t.Fatalf("flow %d: state depends on the flows recorded beside it", flow)
							}
						}
					}
					var all []core.FlowKey
					for f := range seen {
						all = append(all, f)
					}
					sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
					a, err := json.Marshal(collector.Answers(perPkt, queries, all))
					if err != nil {
						t.Fatal(err)
					}
					b, err := json.Marshal(collector.Answers(batched, queries, all))
					if err != nil {
						t.Fatal(err)
					}
					answered := map[string]bool{}
					for _, fa := range collector.Answers(batched, queries, all) {
						for _, qa := range fa.Answers {
							if len(qa.Path)+len(qa.Hops)+len(qa.Series) > 0 {
								answered[qa.Query] = true
							}
						}
					}
					for _, q := range queries {
						if !answered[q.Name()] {
							t.Fatalf("query %q answered no flow", q.Name())
						}
					}
					if !bytes.Equal(a, b) {
						t.Fatalf("answers differ:\nper packet: %s\nbatched:    %s", a, b)
					}
				})
			}
		}
	}
}
