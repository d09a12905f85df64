package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// minTrials is the fewest trials an end-to-end run takes, so every
// reported figure is a median.
const minTrials = 3

// runResult is one benchmark run: its trials and the metrics folded from
// them.
type runResult struct {
	trials    []*trialResult
	layers    *layerReport
	values    map[string]float64
	attempted int
	failed    int
	failures  []string
}

func (r *runResult) correct() bool { return r.failed == 0 }

// run executes one workload for about seconds seconds. Untraced, it
// repeats identical trials and reports the end-to-end metrics; traced,
// it cycles an untraced trial, a traced one, and an untraced one into a
// durable pintd (-data-dir), then replays the captured input layer by
// layer and reports the per-layer metrics.
func run(e *env, s spec, seed uint64, seconds int, traced bool) (*runResult, error) {
	in, err := newInput(s, seed)
	if err != nil {
		return nil, err
	}
	plan := []trialOpts{{}}
	var tr *tracer
	if traced {
		tr = newTracer()
		plan = []trialOpts{{}, {traced: true}, {durable: true}}
	}
	res := &runResult{values: map[string]float64{}}
	budget := time.Duration(seconds) * time.Second
	start := time.Now()
	// Trial 0 is a warm-up: it checks the oracle and brings the binaries,
	// the page cache and the generator's heap up to temperature, and its
	// timings are not reported.
	for i := 0; ; i++ {
		elapsed := time.Since(start)
		if n := i - 1; n >= max(minTrials, len(plan)) && n%len(plan) == 0 {
			// Stop once another trial would end more than half a trial
			// past the budget.
			if per := elapsed / time.Duration(i); elapsed+per/2 > budget {
				break
			}
		}
		o := trialOpts{warmup: true, checkOracle: true}
		if i > 0 {
			o = plan[(i-1)%len(plan)]
		}
		t, err := runTrial(e, in, tr, o, i)
		if err != nil {
			return nil, fmt.Errorf("trial %d: %w", i+1, err)
		}
		res.trials = append(res.trials, t)
		fmt.Fprintf(os.Stderr, "perfbench: trial %d%s: setup %.3fs, %d digests in %.3fs = %.3f Mpkt/s, %.0f daemon CPU ns/pkt, %d queries p50 %.3f p99 %.3f ms\n",
			i+1, o.label(), t.setup.Seconds(), t.post.Server.Packets, t.wall.Seconds(), mpps(t), cpuPerPkt(t), len(t.queries),
			quantile(t.queries, 0.5), quantile(t.queries, 0.99))
	}
	if err := res.check(in); err != nil {
		return nil, err
	}
	if traced {
		if res.layers, err = replayLayers(e, in, tr); err != nil {
			return nil, fmt.Errorf("layer replay: %w", err)
		}
		res.attempted++
		if res.layers.mismatches > 0 {
			res.failed++
			res.failures = append(res.failures, fmt.Sprintf("replayed decode differs from the captured input in %d digests", res.layers.mismatches))
		}
		if err := tr.write(filepath.Join(e.work, fmt.Sprintf("spans-%s-%d.jsonl", s.name, seed))); err != nil {
			return nil, err
		}
		res.perLayer(in, tr)
	} else {
		res.endToEnd()
	}
	return res, nil
}

// check sums every trial's operations and demands that every trial
// answered exactly what the first did (whose oracle sample was checked
// in process).
func (r *runResult) check(in *input) error {
	first := r.trials[0]
	for i, t := range r.trials {
		r.attempted += t.attempted
		r.failed += t.failed
		for _, f := range t.failures {
			r.failures = append(r.failures, fmt.Sprintf("trial %d: %s", i+1, f))
		}
		if i == 0 {
			continue
		}
		for _, pair := range [][2][]byte{{t.oracle, first.oracle}, {t.scored, first.scored}} {
			r.attempted++
			if err := compareAnswers(pair[0], pair[1]); err != nil {
				r.failed++
				r.failures = append(r.failures, fmt.Sprintf("trial %d answers differ from trial 1: %v", i+1, err))
			}
		}
	}
	pathOK, latErrs, err := accuracy(in, in.sample(in.spec.scoreFlows, scoreSampleTag), first.scored)
	if err != nil {
		return err
	}
	r.values["path_correct_frac"] = pathOK
	r.values["lat_p99_err"] = median(latErrs)
	return nil
}

// pick returns the measured trials run with the given traced and durable
// settings.
func (r *runResult) pick(traced, durable bool) []*trialResult {
	var out []*trialResult
	for _, t := range r.trials {
		if !t.opts.warmup && t.opts.traced == traced && t.opts.durable == durable {
			out = append(out, t)
		}
	}
	return out
}

func each(ts []*trialResult, f func(*trialResult) float64) []float64 {
	out := make([]float64, len(ts))
	for i, t := range ts {
		out[i] = f(t)
	}
	return out
}

func mpps(t *trialResult) float64 { return float64(t.post.Server.Packets) / t.wall.Seconds() / 1e6 }

func cpuPerPkt(t *trialResult) float64 {
	return float64(t.daemonCPU.Nanoseconds()) / float64(t.post.Server.Packets)
}

func queries(ts []*trialResult) (lat []float64, window time.Duration) {
	for _, t := range ts {
		lat = append(lat, t.queries...)
		window += t.window
	}
	return lat, window
}

func (r *runResult) endToEnd() {
	base := r.trials[1:]
	v := r.values
	v["ingest_mpps"] = median(each(base, mpps))
	v["cpu_ns_per_pkt"] = median(each(base, cpuPerPkt))
	v["wire_bytes_per_pkt"] = median(each(base, func(t *trialResult) float64 { return float64(t.wireBytes) / float64(t.sent) }))
	v["heap_live_mb"] = median(each(base, func(t *trialResult) float64 { return t.memEnd.HeapAlloc / (1 << 20) }))
	v["setup_s"] = median(each(base, func(t *trialResult) float64 { return t.setup.Seconds() }))
	lat, window := queries(base)
	v["query_p50_ms"] = quantile(lat, 0.5)
	// A few seconds of a slower host set the pooled p99 of a whole run;
	// the median trial's p99 does not move unless most trials slow down.
	v["query_p99_ms"] = median(each(base, func(t *trialResult) float64 { return quantile(t.queries, 0.99) }))
	v["query_qps"] = float64(len(lat)) / window.Seconds()
	v["query.samples"] = float64(len(lat))
}

func (r *runResult) perLayer(in *input, tr *tracer) {
	s := in.spec
	v := r.values
	plain := r.pick(false, false)
	traced := r.pick(true, false)
	durable := r.pick(false, true)
	rep := r.layers
	self := tr.selfTimes()
	perPkt := func(names ...string) float64 {
		var ns int64
		for _, n := range names {
			if lt := self[n]; lt != nil {
				ns += lt.self
			}
		}
		var sent uint64
		for _, t := range traced {
			sent += t.sent
		}
		return float64(ns) / float64(sent)
	}
	cpu := median(each(plain, cpuPerPkt))

	v["core.encode_ns_per_pkt"] = float64(in.encodeNs) / float64(s.flows*s.poolPkts)
	v["core.record_ns_per_pkt"] = rep.recordNs
	v["core.state_bytes_per_flow"] = median(each(plain, func(t *trialResult) float64 { return t.memEnd.HeapAlloc / float64(s.flows) }))
	v["wire.marshal_ns_per_pkt"] = rep.marshalNs
	v["wire.decode_ns_per_pkt"] = rep.decodeNs
	v["collector.send_ns_per_pkt"] = perPkt("send", "flush")
	v["collector.exporter_cpu_ns_per_pkt"] = median(each(plain, func(t *trialResult) float64 {
		return float64(t.genCPU.Nanoseconds()) / float64(t.sent)
	}))
	v["collector.handoff_stall_frac"] = median(each(traced, func(t *trialResult) float64 {
		var stall float64
		for _, c := range t.pre.Conns {
			stall += float64(c.StallNs)
		}
		return stall / (float64(len(t.pre.Conns)) * float64(t.wall.Nanoseconds()))
	}))
	v["collector.answers_us"] = rep.answersUs
	v["collector.member_query_ms"] = median(tr.durations("query.member"))
	var pairs []float64
	for _, t := range traced {
		pairs = append(pairs, t.pairs...)
	}
	v["federation.gate_overhead_ms"] = median(pairs)
	v["pipeline.queue_stalls_per_mpkt"] = median(each(traced, func(t *trialResult) float64 {
		return float64(t.post.Sink.Stalls) / float64(t.post.Server.Packets) * 1e6
	}))
	v["pipeline.shard_imbalance"] = median(each(traced, func(t *trialResult) float64 {
		var top, sum float64
		for _, sh := range t.post.SinkShards {
			top = math.Max(top, float64(sh.Packets))
			sum += float64(sh.Packets)
		}
		return top / (sum / float64(len(t.post.SinkShards)))
	}))
	v["pipeline.snapshot_ms"] = rep.snapshotMs
	v["pipeline.merge_ms"] = rep.mergeMs
	v["segstore.log_bytes_per_pkt"] = median(each(durable, func(t *trialResult) float64 { return float64(t.dataBytes) / float64(t.sent) }))
	v["segstore.append_ns_per_pkt"] = rep.appendNs
	v["segstore.sync_ms"] = rep.syncMs
	v["runtime.allocs_per_pkt"] = median(each(traced, func(t *trialResult) float64 {
		return (t.memEnd.Mallocs - t.memStart.Mallocs) / float64(t.post.Server.Packets)
	}))
	v["runtime.gc_cpu_frac"] = median(each(traced, func(t *trialResult) float64 { return t.memEnd.GCCPUFraction }))
	v["proc.cpu_busy_frac"] = median(each(plain, func(t *trialResult) float64 {
		return (t.daemonCPU + t.genCPU).Seconds() / (t.wall.Seconds() * float64(runtime.NumCPU()))
	}))
	v["budget.ingest_residual_frac"] = 1 - (rep.decodeNs+rep.recordNs)/cpu
	durMpps, plainMpps := median(each(durable, mpps)), median(each(plain, mpps))
	durCPU := median(each(durable, cpuPerPkt))
	v["durability.durable_mpps"] = durMpps
	v["durability.plain_mpps"] = plainMpps
	v["durability.durable_cpu_ns_per_pkt"] = durCPU
	v["durability.plain_cpu_ns_per_pkt"] = cpu
	v["durability.mpps_ratio"] = durMpps / plainMpps
	v["durability.cpu_ratio"] = durCPU / cpu
	v["trace.overhead_mpps_frac"] = 1 - median(each(traced, mpps))/plainMpps
	plainLat, _ := queries(plain)
	tracedLat, _ := queries(traced)
	v["trace.overhead_query_p50_frac"] = quantile(tracedLat, 0.5)/quantile(plainLat, 0.5) - 1
	if c := self["conn"]; c != nil && c.dur > 0 {
		v["trace.generator_self_frac"] = float64(c.self) / float64(c.dur)
	}
	// A trial's self time is the part of the timed region outside every
	// send, query and stats call: waiting for pintd to count what the
	// exporters already sent.
	if t := self["trial"]; t != nil && t.dur > 0 {
		v["trace.drain_frac"] = float64(t.self) / float64(t.dur)
	}
	v["trace.spans"] = float64(len(tr.spans))
	v["query.samples"] = float64(len(plainLat))
	v["replay.digests"] = float64(rep.replayed)
}
