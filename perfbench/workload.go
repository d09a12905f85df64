package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/collector"
	"repro/internal/core"
	"repro/internal/hash"
	"repro/internal/topology"
)

// hops is the path length of every generated flow; pintd runs -k hops so
// the handshake's plan hash matches.
const hops = 5

// frameBatch is the exporter frame size in digests (collector.Connect's
// default).
const frameBatch = 256

// spec is one workload: the traffic shape the generator builds from the
// seed, and what the run does besides ingest.
type spec struct {
	name string
	why  string
	// conns exporter sessions share flows evenly; each sends its flows'
	// pre-encoded pool passes times per trial.
	conns    int
	flows    int
	poolPkts int
	passes   int
	// interleave sends one packet per flow per round (every frame holds
	// 256 different flows); otherwise each frame is a run of one flow's
	// packets and the conn cycles through its flows frame by frame.
	interleave bool
	// hotFlows, when > 0, is how many flows land on sink shard 0 of 2;
	// the rest land on shard 1. Fixing the split keeps the same skew on
	// every seed, so runs with different seeds measure the same load.
	hotFlows int
	// query runs a closed-loop /snapshot client through pintgate while
	// ingest runs; otherwise the queries come after ingest, on an idle
	// daemon.
	query bool
	// oracleFlows are replayed through an in-process Recording and
	// compared byte for byte; scoreFlows have their paths and p99
	// latencies scored against the generated truth.
	oracleFlows int
	scoreFlows  int
	// idleQueries single-flow queries follow each ingest-only trial.
	idleQueries int
}

// digestsPerTrial is how many digests one trial sends.
func (s spec) digestsPerTrial() int { return s.flows * s.poolPkts * s.passes }

var workloads = []spec{
	{
		name:  "ingest-elephants",
		why:   "32 long flows replayed from a pre-encoded pool: the record path runs on warm per-flow state, with a fixed 20:12 shard skew",
		conns: 2, flows: 32, poolPkts: 8192, passes: 12, hotFlows: 20,
		oracleFlows: 4, scoreFlows: 32, idleQueries: 80,
	},
	{
		name:  "ingest-mice",
		why:   "65,536 flows of 48 packets interleaved one packet per flow per round: flow-map growth, cold per-flow state and GC dominate",
		conns: 2, flows: 65536, poolPkts: 48, passes: 1, interleave: true,
		oracleFlows: 256, scoreFlows: 1024, idleQueries: 4,
	},
	{
		name:  "query-under-ingest",
		why:   "one full-rate ingest session into 1,024 flows beside a closed-loop /snapshot client through pintgate: reads cost writes only here",
		conns: 1, flows: 1024, poolPkts: 512, passes: 4, query: true,
		oracleFlows: 16, scoreFlows: 256,
	},
}

func lookupSpec(name string) (spec, error) {
	for _, s := range workloads {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q (have %s)", name, workloadNames())
}

// flowInfo is one generated flow: its key and the truth the generator
// drew for it.
type flowInfo struct {
	key  core.FlowKey
	path [hops]uint64
	// median is each hop's lognormal median latency in ns.
	median [hops]float64
}

// input is a workload's generated traffic: every flow, and per
// connection the frames of one pass in send order.
type input struct {
	spec   spec
	seed   uint64
	tb     *collector.Testbench
	flows  []flowInfo
	frames [][][]core.PacketDigest
	// pkts backs every frame.
	pkts []core.PacketDigest
	// encodeNs is the time spent inside Engine.EncodeHopBatch.
	encodeNs int64
}

// latencySigma is the lognormal shape of every hop's latency.
const latencySigma = 0.35

// newInput draws the flows from the seed and lays out the frames; the
// digests are filled in by encode.
func newInput(s spec, seed uint64) (*input, error) {
	tb, err := collector.NewTestbench(seed, hops)
	if err != nil {
		return nil, err
	}
	g, err := topology.FatTree(8)
	if err != nil {
		return nil, err
	}
	universe := g.SwitchIDUniverse()
	in := &input{spec: s, seed: seed, tb: tb, flows: make([]flowInfo, s.flows)}
	keys := hash.NewRNG(uint64(hash.Seed(seed).Derive(0xF10)))
	seen := make(map[core.FlowKey]bool, s.flows)
	perConn := s.flows / s.conns
	// quota[c][shard] is how many more flows connection c takes on that
	// shard; -1 means unconstrained.
	quota := make([][2]int, s.conns)
	for c := range quota {
		quota[c] = [2]int{-1, -1}
		if s.hotFlows > 0 {
			quota[c] = [2]int{s.hotFlows / s.conns, (s.flows - s.hotFlows) / s.conns}
		}
	}
	for i := 0; i < s.flows; {
		key := core.FlowKey(keys.Uint64())
		if key == 0 || seen[key] {
			continue
		}
		c := i / perConn
		if s.hotFlows > 0 {
			sh := hash.ShardOf(uint64(key), 2)
			if quota[c][sh] == 0 {
				continue
			}
			quota[c][sh]--
		}
		seen[key] = true
		f := flowInfo{key: key}
		rng := hash.NewRNG(uint64(hash.Seed(seed).Derive(0xA7).Hash1(uint64(key))))
		for h := range f.path {
			f.path[h] = universe[rng.Intn(len(universe))]
			f.median[h] = math.Exp(math.Log(2000) + rng.Float64()*math.Log(20))
		}
		in.flows[i] = f
		i++
	}
	in.pkts = make([]core.PacketDigest, s.flows*s.poolPkts)
	in.frames = make([][][]core.PacketDigest, s.conns)
	for c := range in.frames {
		region := in.pkts[c*perConn*s.poolPkts : (c+1)*perConn*s.poolPkts]
		if s.interleave {
			for off := 0; off < len(region); off += frameBatch {
				in.frames[c] = append(in.frames[c], region[off:min(off+frameBatch, len(region))])
			}
			continue
		}
		for r := 0; r < s.poolPkts; r += frameBatch {
			for f := 0; f < perConn; f++ {
				base := f * s.poolPkts
				in.frames[c] = append(in.frames[c], region[base+r:base+min(r+frameBatch, s.poolPkts)])
			}
		}
	}
	return in, nil
}

// slot is where packet j of flow i sits in pkts.
func (in *input) slot(i, j int) int {
	s := in.spec
	perConn := s.flows / s.conns
	c, local := i/perConn, i%perConn
	if s.interleave {
		return c*perConn*s.poolPkts + j*perConn + local
	}
	return (c*perConn+local)*s.poolPkts + j
}

// flowPackets generates flow i's pool: packet IDs into pkts and per-hop
// latencies into lats[h]. It is a pure function of (seed, flow key), so
// the oracle regenerates any flow's truth on its own.
func (in *input) flowPackets(i int, pkts []core.PacketDigest, lats *[hops][]uint64) {
	f := &in.flows[i]
	rng := hash.NewRNG(uint64(hash.Seed(in.seed).Derive(0x7AF).Hash1(uint64(f.key))))
	for j := range pkts {
		pkts[j] = core.PacketDigest{Flow: f.key, PktID: rng.Uint64(), PathLen: hops}
		for h := 0; h < hops; h++ {
			lats[h][j] = uint64(f.median[h] * math.Exp(latencySigma*rng.NormFloat64()))
		}
	}
}

// encodeChunkPkts is how many packets encode passes to EncodeHopBatch at
// once (several mice flows, or a slice of one elephant).
const encodeChunkPkts = 4096

// encode generates and encodes every flow's pool into its frame slots,
// on one goroutine per CPU. It records the time spent inside
// EncodeHopBatch, summed over the goroutines.
func (in *input) encode() {
	s := in.spec
	per := max(1, encodeChunkPkts/s.poolPkts)
	chunks := (s.flows + per - 1) / per
	workers := min(runtime.NumCPU(), chunks)
	var encodeNs atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			encodeNs.Add(in.encodeChunks(per, chunks*w/workers, chunks*(w+1)/workers))
		}(w)
	}
	wg.Wait()
	in.encodeNs = encodeNs.Load()
}

// encodeChunks encodes chunks [lo, hi) of per flows each and returns the
// time spent inside EncodeHopBatch.
func (in *input) encodeChunks(per, lo, hi int) int64 {
	s := in.spec
	chunk := make([]core.PacketDigest, per*s.poolPkts)
	vals := make([]core.HopValues, len(chunk))
	var lats, flowLats [hops][]uint64
	for h := range lats {
		lats[h] = make([]uint64, len(chunk))
	}
	var ns int64
	for c := lo; c < hi; c++ {
		first := c * per
		n := min(per, s.flows-first)
		pk := chunk[:n*s.poolPkts]
		for k := 0; k < n; k++ {
			lo, hi := k*s.poolPkts, (k+1)*s.poolPkts
			for h := range flowLats {
				flowLats[h] = lats[h][lo:hi]
			}
			in.flowPackets(first+k, pk[lo:hi], &flowLats)
		}
		for h := 1; h <= hops; h++ {
			for k := 0; k < n; k++ {
				path := in.flows[first+k].path[h-1]
				for j := k * s.poolPkts; j < (k+1)*s.poolPkts; j++ {
					vals[j] = core.HopValues{SwitchID: path, LatencyNs: lats[h-1][j]}
				}
			}
			t := time.Now()
			in.tb.Engine.EncodeHopBatch(h, pk, vals[:len(pk)])
			ns += int64(time.Since(t))
		}
		for k := 0; k < n; k++ {
			for j := 0; j < s.poolPkts; j++ {
				in.pkts[in.slot(first+k, j)] = pk[k*s.poolPkts+j]
			}
		}
	}
	return ns
}

// flowStream returns flow i's whole digest stream as one trial sends it:
// the encoded pool, passes times.
func (in *input) flowStream(i int) []core.PacketDigest {
	s := in.spec
	out := make([]core.PacketDigest, 0, s.poolPkts*s.passes)
	for p := 0; p < s.passes; p++ {
		for j := 0; j < s.poolPkts; j++ {
			out = append(out, in.pkts[in.slot(i, j)])
		}
	}
	return out
}

// truthLatencies regenerates flow i's per-hop latencies.
func (in *input) truthLatencies(i int) [hops][]uint64 {
	var lats [hops][]uint64
	for h := range lats {
		lats[h] = make([]uint64, in.spec.poolPkts)
	}
	in.flowPackets(i, make([]core.PacketDigest, in.spec.poolPkts), &lats)
	return lats
}

// Sample tags: the oracle and the accuracy score each check their own
// seeded sample of flows.
const (
	oracleSampleTag = 0x0AC
	scoreSampleTag  = 0x5C0
)

// sample draws n distinct flow indices from the seed (all flows when n
// covers them), in ascending order.
func (in *input) sample(n int, tag uint64) []int {
	if n >= in.spec.flows {
		out := make([]int, in.spec.flows)
		for i := range out {
			out[i] = i
		}
		return out
	}
	perm := hash.NewRNG(uint64(hash.Seed(in.seed).Derive(tag))).Perm(in.spec.flows)[:n]
	sort.Ints(perm)
	return perm
}
