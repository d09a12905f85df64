package core

import (
	"fmt"
	"sort"

	"repro/internal/coding"
	"repro/internal/hash"
	"repro/internal/sketch"
)

// Recording is the sink-side Recording Module (§3.4): it intercepts the
// digests the PINT Sink extracts, attributes each slice to its query, and
// maintains the per-flow state queries need — coding decoders for path
// queries, per-(flow,hop) samples or sketches for latency queries, value
// streams for per-packet queries. All of this state lives off-switch.
type Recording struct {
	engine *Engine
	// SketchItems > 0 stores latency samples in KLL sketches with that
	// accuracy parameter (PINTS in Fig 9); 0 keeps raw sample lists.
	SketchItems int
	// WindowBuckets/WindowSpan > 0 switch latency storage to
	// sliding-window sketches so quantiles reflect only the most recent
	// measurements (§4.1's sliding-window option). Requires SketchItems>0.
	WindowBuckets int
	WindowSpan    uint64
	// FreqCounters bounds the Space Saving summary per (flow, hop) for
	// frequent-value queries (Theorem 2's 1/ε counters). Default 16.
	FreqCounters int
	// MaxFlows > 0 bounds the number of flows with live state (§3.3's
	// per-flow space budget at the fleet level): recording a new flow
	// beyond the limit evicts the least-recently-updated one entirely.
	MaxFlows int

	flowSeq map[FlowKey]uint64
	seq     uint64
	// base seeds the recording-side sketches: each (query, flow, hop)
	// store derives its RNG from base deterministically, so a flow's
	// state is independent of cross-flow arrival order — the property
	// that makes the sharded pipeline bit-identical to the serial path.
	base  hash.Seed
	paths map[*PathQuery]map[FlowKey]*coding.Decoder
	lats  map[*LatencyQuery]map[FlowKey][]*latStore
	utils map[*UtilQuery]map[FlowKey][]float64
	freqs map[*FreqQuery]map[FlowKey][]*sketch.SpaceSaving
	cnts  map[*CountQuery]map[FlowKey][]float64
	// slots caches each query's state for the run being recorded,
	// indexed by encodeOp.slot; every slot is empty between runs.
	slots []runSlot
}

type latStore struct {
	raw []uint64
	kll *sketch.KLL
	win *sketch.SlidingKLL
}

// NewRecording creates a Recording Module for an engine. sketchItems > 0
// selects sketched storage (see Recording.SketchItems). The RNG provides
// only the sketch seed base; see NewRecordingSeeded for the explicit form.
func NewRecording(engine *Engine, sketchItems int, rng *hash.RNG) (*Recording, error) {
	if rng == nil {
		return nil, fmt.Errorf("core: recording requires an RNG")
	}
	return NewRecordingSeeded(engine, sketchItems, hash.Seed(rng.Uint64()))
}

// NewRecordingSeeded creates a Recording Module whose sketch randomness
// derives entirely from base. Two recordings with the same engine and base
// produce bit-identical per-flow answers for the same per-flow digest
// streams regardless of how flows interleave — the contract the sharded
// pipeline's workers rely on.
func NewRecordingSeeded(engine *Engine, sketchItems int, base hash.Seed) (*Recording, error) {
	if engine == nil {
		return nil, fmt.Errorf("core: nil engine")
	}
	return &Recording{
		engine:       engine,
		SketchItems:  sketchItems,
		FreqCounters: 16,
		flowSeq:      map[FlowKey]uint64{},
		base:         base,
		paths:        map[*PathQuery]map[FlowKey]*coding.Decoder{},
		lats:         map[*LatencyQuery]map[FlowKey][]*latStore{},
		utils:        map[*UtilQuery]map[FlowKey][]float64{},
		freqs:        map[*FreqQuery]map[FlowKey][]*sketch.SpaceSaving{},
		cnts:         map[*CountQuery]map[FlowKey][]float64{},
		slots:        make([]runSlot, engine.nQueries),
	}, nil
}

// sketchRNG derives the RNG for one (query, flow, hop) store.
func (r *Recording) sketchRNG(qname string, flow FlowKey, hop int) *hash.RNG {
	return hash.NewRNG(r.base.Hash3(hash.Seed(0).HashString(qname), uint64(flow), uint64(hop)))
}

// Record processes one sink-extracted digest for a flow whose path length
// is k (derived from the received TTL). It is RecordBatch of one packet.
func (r *Recording) Record(flow FlowKey, k int, pktID uint64, digest uint64) error {
	one := [1]PacketDigest{{Flow: flow, PktID: pktID, PathLen: k, Digest: digest}}
	return r.RecordBatch(one[:])
}

// RecordBatch ingests a batch of sink-extracted digests — the shape shard
// workers and the batch experiment harness drive. Packets that came
// through EncodeHopBatch carry their query-set selection already cached.
// The batch is recorded as runs: maximal stretches of consecutive packets
// of one flow, each charged one recency update and one state lookup per
// query, with results identical to recording the packets one at a time.
func (r *Recording) RecordBatch(batch []PacketDigest) error {
	for len(batch) > 0 {
		n := 1
		for n < len(batch) && batch[n].Flow == batch[0].Flow {
			n++
		}
		if err := r.recordRun(batch[:n]); err != nil {
			return err
		}
		batch = batch[n:]
	}
	return nil
}

// runSlot holds one query's state for the flow whose run is being
// recorded: looked up (or created) at the run's first packet that
// carries the query, then reused by the rest of the run. op is nil while
// the slot is empty.
type runSlot struct {
	op   *encodeOp
	dec  *coding.Decoder
	lat  []*latStore
	freq []*sketch.SpaceSaving
	// vals is a util or count series; appends land here and are stored
	// back into the query's flow map when the run ends.
	vals []float64
}

// recordRun records a run of packets sharing one flow, each through the
// compiled program of its query set: direct kind dispatch on precomputed
// ops, no Extracted materialization, no type switches on interfaces.
func (r *Recording) recordRun(run []PacketDigest) error {
	flow := run[0].Flow
	r.touch(flow, len(run))
	err := r.recordPackets(flow, run)
	for i := range r.slots {
		s := &r.slots[i]
		switch {
		case s.op == nil:
			continue
		case s.op.kind == opUtil:
			r.utils[s.op.util][flow] = s.vals
		case s.op.kind == opCount:
			r.cnts[s.op.cnt][flow] = s.vals
		}
		*s = runSlot{}
	}
	return err
}

func (r *Recording) recordPackets(flow FlowKey, run []PacketDigest) error {
	for i := range run {
		pkt := &run[i]
		si := r.engine.setIndexOf(pkt)
		if si < 0 {
			continue
		}
		ops := r.engine.progs[si].ops
		for j := range ops {
			op := &ops[j]
			s := &r.slots[op.slot]
			if s.op == nil {
				if err := r.fillSlot(s, op, flow, pkt.PathLen); err != nil {
					return err
				}
			}
			bits := pkt.Digest >> op.shift & op.mask
			switch op.kind {
			case opPath:
				op.path.ObserveInto(s.dec, pkt.PktID, bits)
			case opLatency:
				if pkt.PathLen > len(s.lat) {
					if err := r.growLatency(s, op.lat, flow, pkt.PathLen); err != nil {
						return err
					}
				}
				st := s.lat[op.lat.Winner(pkt.PktID, pkt.PathLen)-1]
				switch {
				case st.win != nil:
					if err := st.win.Add(float64(bits)); err != nil {
						return err
					}
				case st.kll != nil:
					st.kll.Add(float64(bits))
				default:
					st.raw = append(st.raw, bits)
				}
			case opUtil:
				s.vals = append(s.vals, op.util.Decode(bits))
			case opFreq:
				if pkt.PathLen > len(s.freq) {
					if err := r.growFreq(s, op.freq, flow, pkt.PathLen); err != nil {
						return err
					}
				}
				s.freq[op.freq.Winner(pkt.PktID, pkt.PathLen)-1].Add(bits)
			case opCount:
				s.vals = append(s.vals, op.cnt.Decode(bits))
			}
		}
	}
	return nil
}

// fillSlot looks up op's query state for flow, creating the query's flow
// map and (for path queries) the flow's decoder on first use. Per-hop
// stores are created by growLatency/growFreq as path lengths arrive.
func (r *Recording) fillSlot(s *runSlot, op *encodeOp, flow FlowKey, k int) error {
	switch op.kind {
	case opPath:
		byFlow := flowMap(r.paths, op.path)
		if s.dec = byFlow[flow]; s.dec == nil {
			dec, err := op.path.NewDecoder(k)
			if err != nil {
				return err
			}
			byFlow[flow], s.dec = dec, dec
		}
	case opLatency:
		s.lat = flowMap(r.lats, op.lat)[flow]
	case opUtil:
		s.vals = flowMap(r.utils, op.util)[flow]
	case opFreq:
		s.freq = flowMap(r.freqs, op.freq)[flow]
	case opCount:
		s.vals = flowMap(r.cnts, op.cnt)[flow]
	}
	s.op = op
	return nil
}

// growLatency extends a flow's per-hop latency stores to k hops: a flow
// whose path gets longer (a route change, §7) keeps its existing hops and
// gains fresh stores for the new ones. Each store's RNG derives from
// (query, flow, hop) alone, so growth stays bit-identical across shards.
func (r *Recording) growLatency(s *runSlot, q *LatencyQuery, flow FlowKey, k int) error {
	hops := make([]*latStore, k)
	copy(hops, s.lat)
	for i := len(s.lat); i < k; i++ {
		st := &latStore{}
		switch {
		case r.WindowBuckets > 1 && r.SketchItems > 0:
			win, err := sketch.NewSlidingKLL(r.WindowBuckets,
				r.WindowSpan, r.SketchItems, r.sketchRNG(q.Name(), flow, i+1))
			if err != nil {
				return err
			}
			st.win = win
		case r.SketchItems > 0:
			kll, err := sketch.NewKLL(r.SketchItems, r.sketchRNG(q.Name(), flow, i+1))
			if err != nil {
				return err
			}
			st.kll = kll
		}
		hops[i] = st
	}
	s.lat = hops
	r.lats[q][flow] = hops
	return nil
}

// growFreq extends a flow's per-hop frequent-value summaries to k hops,
// as growLatency does for latency stores.
func (r *Recording) growFreq(s *runSlot, q *FreqQuery, flow FlowKey, k int) error {
	hops := make([]*sketch.SpaceSaving, k)
	copy(hops, s.freq)
	for i := len(s.freq); i < k; i++ {
		ss, err := sketch.NewSpaceSaving(r.FreqCounters)
		if err != nil {
			return err
		}
		hops[i] = ss
	}
	s.freq = hops
	r.freqs[q][flow] = hops
	return nil
}

// touch refreshes a flow's recency for a run of n packets and enforces
// MaxFlows by evicting the least-recently-updated flows' state across
// every query. It leaves seq, recency and victims exactly as n per-packet
// refreshes would: seq advances by n, and each packet may evict one flow
// while the limit is exceeded (only the run's first packet can add one).
func (r *Recording) touch(flow FlowKey, n int) {
	r.seq += uint64(n)
	r.flowSeq[flow] = r.seq
	for ; n > 0 && r.MaxFlows > 0 && len(r.flowSeq) > r.MaxFlows; n-- {
		var victim FlowKey
		oldest := ^uint64(0)
		for f, s := range r.flowSeq {
			if s < oldest {
				oldest, victim = s, f
			}
		}
		r.Evict(victim)
	}
}

// Evict drops all recorded state for one flow.
func (r *Recording) Evict(flow FlowKey) {
	delete(r.flowSeq, flow)
	dropFlow(r.paths, flow)
	dropFlow(r.lats, flow)
	dropFlow(r.utils, flow)
	dropFlow(r.freqs, flow)
	dropFlow(r.cnts, flow)
}

// TrackedFlows returns the number of flows with live state.
func (r *Recording) TrackedFlows() int { return len(r.flowSeq) }

// Flows returns every flow with live state in sorted key order, so
// iterating a Recording's flows (reports, snapshot endpoints) is
// deterministic.
func (r *Recording) Flows() []FlowKey {
	out := make([]FlowKey, 0, len(r.flowSeq))
	for f := range r.flowSeq {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// HasFlow reports whether a flow currently has live state — e.g. inside
// an eviction callback, where the flow is still queryable.
func (r *Recording) HasFlow(flow FlowKey) bool {
	_, ok := r.flowSeq[flow]
	return ok
}

// Clone deep-copies the Recording — decoders, sketches, sample lists, and
// recency state — sharing only the immutable engine and configuration.
// The clone answers every query bit-identically to the original at the
// moment of the copy, and both sides can keep recording (or be queried)
// independently afterwards. This is what makes the pipeline's snapshot
// queries race-free: a shard worker clones its Recording between batches
// and hands the copy to concurrent readers.
func (r *Recording) Clone() *Recording {
	c := &Recording{
		engine:        r.engine,
		SketchItems:   r.SketchItems,
		WindowBuckets: r.WindowBuckets,
		WindowSpan:    r.WindowSpan,
		FreqCounters:  r.FreqCounters,
		MaxFlows:      r.MaxFlows,
		seq:           r.seq,
		base:          r.base,
		flowSeq:       make(map[FlowKey]uint64, len(r.flowSeq)),
		paths:         cloneFlowMaps(r.paths, (*coding.Decoder).Clone),
		lats:          cloneFlowMaps(r.lats, cloneLatStores),
		utils:         cloneFlowMaps(r.utils, cloneSeries),
		freqs:         cloneFlowMaps(r.freqs, cloneFreqStores),
		cnts:          cloneFlowMaps(r.cnts, cloneSeries),
		slots:         make([]runSlot, len(r.slots)),
	}
	for f, s := range r.flowSeq {
		c.flowSeq[f] = s
	}
	return c
}

func cloneLatStores(hops []*latStore) []*latStore {
	cp := make([]*latStore, len(hops))
	for i, st := range hops {
		if st == nil {
			continue
		}
		cst := &latStore{raw: append([]uint64(nil), st.raw...)}
		if st.kll != nil {
			cst.kll = st.kll.Clone()
		}
		if st.win != nil {
			cst.win = st.win.Clone()
		}
		cp[i] = cst
	}
	return cp
}

func cloneFreqStores(hops []*sketch.SpaceSaving) []*sketch.SpaceSaving {
	cp := make([]*sketch.SpaceSaving, len(hops))
	for i, ss := range hops {
		if ss != nil {
			cp[i] = ss.Clone()
		}
	}
	return cp
}

func cloneSeries(vs []float64) []float64 { return append([]float64(nil), vs...) }

// flowMap returns q's per-flow map within one query family, creating it
// on first use.
func flowMap[Q comparable, V any](m map[Q]map[FlowKey]V, q Q) map[FlowKey]V {
	byFlow := m[q]
	if byFlow == nil {
		byFlow = map[FlowKey]V{}
		m[q] = byFlow
	}
	return byFlow
}

// cloneFlowMaps deep-copies one query family's per-flow state with cp.
func cloneFlowMaps[Q comparable, V any](m map[Q]map[FlowKey]V, cp func(V) V) map[Q]map[FlowKey]V {
	out := make(map[Q]map[FlowKey]V, len(m))
	for q, byFlow := range m {
		c := make(map[FlowKey]V, len(byFlow))
		for f, v := range byFlow {
			c[f] = cp(v)
		}
		out[q] = c
	}
	return out
}

// adoptFlowMaps moves every flow of one query family from src into dst
// by reference.
func adoptFlowMaps[Q comparable, V any](dst, src map[Q]map[FlowKey]V) {
	for q, byFlow := range src {
		d := flowMap(dst, q)
		for f, v := range byFlow {
			d[f] = v
		}
	}
}

// dropFlow deletes one flow from every query of a family.
func dropFlow[Q comparable, V any](m map[Q]map[FlowKey]V, flow FlowKey) {
	for _, byFlow := range m {
		delete(byFlow, flow)
	}
}

// Merge adopts every flow of o into r. The two recordings must serve the
// same engine and must track disjoint flow sets — the shape produced by
// the sharded sink, where a flow's state lives wholly inside one shard —
// so merging is adoption, not sketch arithmetic. o's per-flow state moves
// into r by reference; o must not be used afterwards. Flow recency is
// preserved within o and appended after r's, deterministically.
func (r *Recording) Merge(o *Recording) error {
	if o == nil {
		return nil
	}
	if o.engine != r.engine {
		return fmt.Errorf("core: merging recordings of different engines")
	}
	for f := range o.flowSeq {
		if _, dup := r.flowSeq[f]; dup {
			return fmt.Errorf("core: merge would duplicate flow %v", f)
		}
	}
	// Re-sequence o's flows after r's, in o's own recency order, so the
	// merged recency ranking is independent of map iteration order.
	flows := make([]FlowKey, 0, len(o.flowSeq))
	for f := range o.flowSeq {
		flows = append(flows, f)
	}
	sort.Slice(flows, func(i, j int) bool { return o.flowSeq[flows[i]] < o.flowSeq[flows[j]] })
	for _, f := range flows {
		r.seq++
		r.flowSeq[f] = r.seq
	}
	adoptFlowMaps(r.paths, o.paths)
	adoptFlowMaps(r.lats, o.lats)
	adoptFlowMaps(r.utils, o.utils)
	adoptFlowMaps(r.freqs, o.freqs)
	adoptFlowMaps(r.cnts, o.cnts)
	return nil
}

// Path answers a path query: the decoded switch IDs and whether decoding
// is complete (Inference Module, static aggregation).
func (r *Recording) Path(q *PathQuery, flow FlowKey) ([]uint64, bool) {
	dec := r.paths[q][flow]
	if dec == nil {
		return nil, false
	}
	vals, ok := dec.Path()
	for _, o := range ok {
		if !o {
			return vals, false
		}
	}
	return vals, true
}

// PathDecoder exposes a flow's decoder for progress inspection.
func (r *Recording) PathDecoder(q *PathQuery, flow FlowKey) *coding.Decoder {
	return r.paths[q][flow]
}

// PathInconsistencies returns the number of packets whose digests
// contradicted the flow's decoded blocks — §7's route-change signal: a
// fully-decoded flow produces inconsistencies with probability 1−2^-q per
// post-change packet, so a short burst is near-certain evidence the path
// moved (e.g. flowlet re-routing or a failover).
func (r *Recording) PathInconsistencies(q *PathQuery, flow FlowKey) int {
	dec := r.paths[q][flow]
	if dec == nil {
		return 0
	}
	return dec.Inconsistent()
}

// RouteChanged applies §7's detection rule: after a flow's path has fully
// decoded, report a change once at least `threshold` inconsistent packets
// arrive (threshold > 1 suppresses the 2^-q-probability hash-collision
// false positives).
func (r *Recording) RouteChanged(q *PathQuery, flow FlowKey, threshold int) bool {
	dec := r.paths[q][flow]
	if dec == nil || !dec.Done() {
		return false
	}
	return dec.Inconsistent() >= threshold
}

// LatencyQuantile answers a dynamic query: the phi-quantile of hop
// `hop` (1-based) for the flow, decoded back to value units. The result
// carries both sampling error (Theorem 1) and compression error (§4.3).
func (r *Recording) LatencyQuantile(q *LatencyQuery, flow FlowKey, hop int, phi float64) (float64, error) {
	hops := r.lats[q][flow]
	if hops == nil || hop < 1 || hop > len(hops) {
		return 0, fmt.Errorf("core: no samples for flow %v hop %d", flow, hop)
	}
	st := hops[hop-1]
	var code float64
	if st.win != nil {
		if st.win.WindowCount() == 0 {
			return 0, fmt.Errorf("core: empty window for hop %d", hop)
		}
		q2, err := st.win.Quantile(phi)
		if err != nil {
			return 0, err
		}
		code = q2
	} else if st.kll != nil {
		if st.kll.Count() == 0 {
			return 0, fmt.Errorf("core: empty sketch for hop %d", hop)
		}
		code = st.kll.Quantile(phi)
	} else {
		if len(st.raw) == 0 {
			return 0, fmt.Errorf("core: no samples for hop %d", hop)
		}
		fs := make([]float64, len(st.raw))
		for i, c := range st.raw {
			fs[i] = float64(c)
		}
		code = sketch.ExactQuantile(fs, phi)
	}
	return q.Decode(uint64(code + 0.5)), nil
}

// LatencySamples returns how many samples hop `hop` has accumulated.
func (r *Recording) LatencySamples(q *LatencyQuery, flow FlowKey, hop int) int {
	hops := r.lats[q][flow]
	if hops == nil || hop < 1 || hop > len(hops) {
		return 0
	}
	st := hops[hop-1]
	switch {
	case st.win != nil:
		return int(st.win.WindowCount())
	case st.kll != nil:
		return int(st.kll.Count())
	default:
		return len(st.raw)
	}
}

// LatencyStorageBytes reports the per-flow storage a latency query uses,
// assuming each stored item is the query's digest width (Fig 9's
// sketch-size axis).
func (r *Recording) LatencyStorageBytes(q *LatencyQuery, flow FlowKey) int {
	hops := r.lats[q][flow]
	total := 0
	for _, st := range hops {
		if st == nil {
			continue
		}
		if st.kll != nil {
			total += st.kll.SizeBytes(q.Bits())
		} else {
			total += (len(st.raw)*q.Bits() + 7) / 8
		}
	}
	return total
}

// UtilSeries answers a per-packet query: the decoded bottleneck values in
// arrival order.
func (r *Recording) UtilSeries(q *UtilQuery, flow FlowKey) []float64 {
	return r.utils[q][flow]
}

// FrequentValues answers a frequent-values query (Theorem 2): the values
// appearing in at least a theta-fraction of hop `hop`'s sampled stream.
func (r *Recording) FrequentValues(q *FreqQuery, flow FlowKey, hop int, theta float64) []sketch.HeavyHitter {
	hops := r.freqs[q][flow]
	if hops == nil || hop < 1 || hop > len(hops) {
		return nil
	}
	return hops[hop-1].HeavyHitters(theta)
}

// FreqSamples returns the number of samples a frequent-values query has
// for a hop.
func (r *Recording) FreqSamples(q *FreqQuery, flow FlowKey, hop int) int {
	hops := r.freqs[q][flow]
	if hops == nil || hop < 1 || hop > len(hops) {
		return 0
	}
	return int(hops[hop-1].Count())
}

// CountSeries answers a randomized-counting query: the decoded per-packet
// count estimates in arrival order. The mean of the series is an unbiased
// estimate of the expected per-packet count.
func (r *Recording) CountSeries(q *CountQuery, flow FlowKey) []float64 {
	return r.cnts[q][flow]
}
