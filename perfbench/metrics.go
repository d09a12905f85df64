package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric. The end-to-end and per-layer
// lists below are the ones BENCHMARK.json declares; bench_test.go holds
// the two in step.
type metricDef struct {
	name, unit, better string
}

var endToEnd = []metricDef{
	{"ingest_mpps", "Mpkt/s", "higher"},
	{"cpu_ns_per_pkt", "ns", "lower"},
	{"wire_bytes_per_pkt", "B", "lower"},
	{"heap_live_mb", "MiB", "lower"},
	{"setup_s", "s", "lower"},
	{"query_p50_ms", "ms", "lower"},
	{"query_p99_ms", "ms", "lower"},
	{"query_qps", "1/s", "higher"},
	{"path_correct_frac", "fraction", "higher"},
	{"lat_p99_err", "fraction", "lower"},
}

var perLayer = []metricDef{
	{"core.encode_ns_per_pkt", "ns", "lower"},
	{"core.record_ns_per_pkt", "ns", "lower"},
	{"core.state_bytes_per_flow", "B", "lower"},
	{"wire.marshal_ns_per_pkt", "ns", "lower"},
	{"wire.decode_ns_per_pkt", "ns", "lower"},
	{"collector.send_ns_per_pkt", "ns", "lower"},
	{"collector.exporter_cpu_ns_per_pkt", "ns", "lower"},
	{"collector.handoff_stall_frac", "fraction", "lower"},
	{"collector.answers_us", "us", "lower"},
	{"collector.member_query_ms", "ms", "lower"},
	{"federation.gate_overhead_ms", "ms", "lower"},
	{"pipeline.queue_stalls_per_mpkt", "count", "lower"},
	{"pipeline.shard_imbalance", "ratio", "lower"},
	{"pipeline.snapshot_ms", "ms", "lower"},
	{"pipeline.merge_ms", "ms", "lower"},
	{"segstore.log_bytes_per_pkt", "B", "lower"},
	{"segstore.append_ns_per_pkt", "ns", "lower"},
	{"segstore.sync_ms", "ms", "lower"},
	{"runtime.allocs_per_pkt", "count", "lower"},
	{"runtime.gc_cpu_frac", "fraction", "lower"},
	{"proc.cpu_busy_frac", "fraction", "higher"},
	{"budget.ingest_residual_frac", "fraction", "lower"},
	{"durability.mpps_ratio", "ratio", "higher"},
	{"durability.cpu_ratio", "ratio", "lower"},
	{"durability.durable_mpps", "Mpkt/s", "higher"},
	{"durability.plain_mpps", "Mpkt/s", "higher"},
	{"durability.durable_cpu_ns_per_pkt", "ns", "lower"},
	{"durability.plain_cpu_ns_per_pkt", "ns", "lower"},
	{"trace.overhead_mpps_frac", "fraction", "lower"},
	{"trace.overhead_query_p50_frac", "fraction", "lower"},
	{"trace.generator_self_frac", "fraction", "lower"},
	{"trace.drain_frac", "fraction", "lower"},
	{"trace.spans", "count", "higher"},
	{"query.samples", "count", "higher"},
	{"replay.digests", "count", "higher"},
}

// median of xs, the mean of the middle two for an even count (NaN when
// empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the nearest-rank phi-quantile of xs (NaN when empty).
func quantile(xs []float64, phi float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(phi*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}
