package main

// perLayer lists every per-layer metric with its unit. A traced run
// reports all of them; a layer its workload never calls reports zero.
var perLayer = []metricSpec{
	{"sim.points", "count"},
	{"sim.point.self_s", "s"},
	{"sim.point.host_ns_per_cycle", "ns"},
	{"traffic.dest.calls", "count"},
	{"traffic.dest.self_s", "s"},
	{"routing.candidates.calls", "count"},
	{"routing.candidates.self_s", "s"},
	{"routing.useful_ratio", "ratio"},
	{"network.cycles", "count"},
	{"network.injects", "count"},
	{"network.flit_moves", "count"},
	{"network.blocked", "count"},
	{"network.delivers", "count"},
	{"network.grant_ratio", "ratio"},
	{"simcache.get.calls", "count"},
	{"simcache.get.hit_ratio", "ratio"},
	{"simcache.get.self_s", "s"},
	{"simcache.put.calls", "count"},
	{"simcache.put.bytes", "bytes"},
	{"simcache.put.self_s", "s"},
	{"jobstore.records", "count"},
	{"jobstore.records_per_job", "ratio"},
	{"jobstore.dir_bytes", "bytes"},
	{"serve.fresh.submit_ms.p50", "ms"},
	{"serve.fresh.first_point_ms.p50", "ms"},
	{"serve.fresh.stream_ms.p50", "ms"},
	{"serve.fresh.report_ms.p50", "ms"},
	{"serve.fresh.latency_ms.p50", "ms"},
	{"serve.overlap.submit_ms.p50", "ms"},
	{"serve.overlap.first_point_ms.p50", "ms"},
	{"serve.overlap.stream_ms.p50", "ms"},
	{"serve.overlap.report_ms.p50", "ms"},
	{"serve.overlap.latency_ms.p50", "ms"},
	{"serve.repeat.submit_ms.p50", "ms"},
	{"serve.repeat.stream_ms.p50", "ms"},
	{"serve.repeat.report_ms.p50", "ms"},
	{"serve.repeat.latency_ms.p50", "ms"},
	{"serve.points_simulated", "count"},
	{"serve.points_cached", "count"},
	{"serve.retries", "count"},
	{"serve.rejected", "count"},
	{"trace.overhead_ratio", "ratio"},
}

type metricSpec struct{ name, unit string }

// fillLayers reports zero for every per-layer metric the run did not
// measure, and fails loudly on a name outside the list.
func fillLayers(res *result) {
	known := make(map[string]bool, len(perLayer))
	for _, m := range perLayer {
		known[m.name] = true
		if _, ok := res.metrics[m.name]; !ok {
			res.set(m.name, 0, m.unit)
		}
	}
	for name := range res.metrics {
		if !known[name] {
			panic("perfbench: unlisted per-layer metric " + name)
		}
	}
}
