package core

import (
	"bytes"
	"testing"

	"repro/internal/hash"
)

// TestRecordingGrowsPerHopStores pins the route-change fix: a flow whose
// later packets carry a longer PathLen than its first grows its per-hop
// latency and frequent-value stores instead of indexing past them, and
// the grown stores draw their RNG from (query, flow, hop) alone, so a
// flow recorded beside other flows ends bit-identical to one recorded
// alone.
func TestRecordingGrowsPerHopStores(t *testing.T) {
	eng, path, lat, _, freq, _ := combinedTestPlan(t, 41)
	const short, long = 2, 6
	rng := hash.NewRNG(43)
	mk := func(flow FlowKey, k int) PacketDigest {
		return PacketDigest{Flow: flow, PktID: rng.Uint64(), PathLen: k, Digest: rng.Uint64() & (1<<32 - 1)}
	}
	var grower, other []PacketDigest
	for i := 0; i < 300; i++ {
		grower = append(grower, mk(7, short))
		other = append(other, mk(8, long))
	}
	for i := 0; i < 3000; i++ {
		grower = append(grower, mk(7, long))
		other = append(other, mk(8, short))
	}
	for _, sketchItems := range []int{0, 32} {
		alone, err := NewRecordingSeeded(eng, sketchItems, 45)
		if err != nil {
			t.Fatal(err)
		}
		mixed, err := NewRecordingSeeded(eng, sketchItems, 45)
		if err != nil {
			t.Fatal(err)
		}
		if err := alone.RecordBatch(grower); err != nil {
			t.Fatal(err)
		}
		for i := range grower {
			if err := mixed.RecordBatch([]PacketDigest{grower[i], other[i]}); err != nil {
				t.Fatal(err)
			}
		}
		for hop := 1; hop <= long; hop++ {
			if alone.LatencySamples(lat, 7, hop) == 0 || alone.FreqSamples(freq, 7, hop) == 0 {
				t.Fatalf("sketch=%d hop %d: no samples after the path grew to %d hops", sketchItems, hop, long)
			}
		}
		if alone.LatencySamples(lat, 7, long+1) != 0 {
			t.Fatalf("sketch=%d: samples beyond the longest path", sketchItems)
		}
		queries := []Query{path, lat, freq}
		a, err := alone.AppendFlowState(nil, queries, 7)
		if err != nil {
			t.Fatal(err)
		}
		m, err := mixed.AppendFlowState(nil, queries, 7)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, m) {
			t.Fatalf("sketch=%d: grown flow's state depends on the other flows it was recorded beside", sketchItems)
		}
	}
}

// TestRecordBatchAllocs pins the record path's allocation budget: warm
// RecordBatch with raw latency storage (the daemon's configuration)
// allocates nothing per packet beyond amortized sample-slice growth,
// whether the batch arrives as per-flow runs or one packet per flow in
// rotation.
func TestRecordBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own; allocation counts are meaningless under -race")
	}
	uni := testUniverse(5, 64)
	cfg, err := DefaultPathConfig(4, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	path, err := NewPathQuery("path", cfg, 1, 51, uni)
	if err != nil {
		t.Fatal(err)
	}
	lat, err := NewLatencyQuery("lat", 8, 0.04, 15.0/16, 51)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Compile([]Query{path, lat}, 16, 52)
	if err != nil {
		t.Fatal(err)
	}
	const nFlows, perFlow, k = 16, 256, 5
	runs := make([]PacketDigest, 0, nFlows*perFlow)
	rng := hash.NewRNG(53)
	for f := 0; f < nFlows; f++ {
		for i := 0; i < perFlow; i++ {
			runs = append(runs, PacketDigest{Flow: FlowKey(f + 1), PktID: rng.Uint64(), PathLen: k})
		}
	}
	vals := make([]HopValues, len(runs))
	for hop := 1; hop <= k; hop++ {
		for i := range runs {
			vals[i] = HopValues{SwitchID: uni[(int(runs[i].Flow)+hop)%len(uni)], LatencyNs: 1000 + runs[i].PktID%50000}
		}
		eng.EncodeHopBatch(hop, runs, vals)
	}
	interleaved := make([]PacketDigest, 0, len(runs))
	for i := 0; i < perFlow; i++ {
		for f := 0; f < nFlows; f++ {
			interleaved = append(interleaved, runs[f*perFlow+i])
		}
	}
	for name, stream := range map[string][]PacketDigest{"runs": runs, "interleaved": interleaved} {
		rec, err := NewRecordingSeeded(eng, 0, 55)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ { // warm: admit flows, decode paths, grow sample slices
			if err := rec.RecordBatch(stream); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(20, func() {
			if err := rec.RecordBatch(stream); err != nil {
				t.Fatal(err)
			}
		})
		if perPkt := allocs / float64(len(stream)); perPkt >= 0.01 {
			t.Fatalf("%s: %.4f allocs/pkt (%v per %d-packet batch), want < 0.01", name, perPkt, allocs, len(stream))
		}
	}
}
