package main

import "fmt"

// metricSpec names one reported metric. The tables below are the single
// list BENCHMARK.json's end_to_end and per_layer entries must agree with
// (TestBenchmarkJSONMatchesTables).
type metricSpec struct {
	name, unit, better string
}

// endToEnd is what a user of the pipeline sees, reported with --trace 0.
// Throughput and allocation count every candidate entity S2 synthesized,
// accepted or rejected: how many candidates a call rejects varies by a
// factor of two between seeds, so per accepted entity both figures would
// spread by more than any useful bound. Throughput is per CPU second of
// the process: on a shared 2-vCPU host the wall time of the same work
// drifts by a third within minutes, its CPU time by less (README.md has
// the numbers); wall-clock rates are per layer.
var endToEnd = []metricSpec{
	{"candidates_per_cpu_s", "1/s", "higher"},
	{"alloc_kib_per_candidate", "KiB", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer is reported with --trace 1, grouped by module.
var perLayer = []metricSpec{
	// core.Synthesize as a whole, from the untraced call of each pair:
	// the user's wall-clock figures, too seed- and host-dependent to bound
	// (see endToEnd).
	{"core.synthesize.entities_per_s", "1/s", "higher"},
	{"core.synthesize.candidates_per_s", "1/s", "higher"},
	{"core.synthesize.alloc_mb", "MiB", "lower"},
	{"core.synthesize.jsd", "nats", "lower"},
	// core stages: the recorder's core.s1/s2/s3 spans; finalize is a silent
	// stage, measured from the core.s3 span's end to Synthesize's return.
	{"core.s1.wall_s", "s", "lower"},
	{"core.s2.wall_s", "s", "lower"},
	{"core.s2.entities_per_s", "1/s", "higher"},
	{"core.s3.wall_s", "s", "lower"},
	{"core.finalize.wall_s", "s", "lower"},
	// core S2 rejection counters.
	{"core.s2.attempts", "count", "lower"},
	{"core.s2.acceptance_ratio", "ratio", "higher"},
	{"core.s2.rejected_distribution", "count", "lower"},
	// generator/gmm: the wrapped Dist and the EM counters.
	{"dist.sample.calls", "count", "lower"},
	{"dist.sample.busy_s", "s", "lower"},
	{"dist.logpdf.calls", "count", "lower"},
	{"dist.logpdf.busy_s", "s", "lower"},
	{"dist.posterior.calls", "count", "lower"},
	{"dist.posterior.busy_s", "s", "lower"},
	{"gmm.em.fits", "count", "lower"},
	{"gmm.em.iterations", "count", "lower"},
	// gmm kernel replay.
	{"gmm.jsd_striped.ns_per_call", "ns", "lower"},
	{"gmm.jsd_striped.allocs_per_call", "count", "lower"},
	// textsynth and simfn.
	{"textsynth.synthesize.calls", "count", "lower"},
	{"textsynth.synthesize.busy_s", "s", "lower"},
	{"simfn.simvector.ns_per_pair", "ns", "lower"},
	// parallel: mean over every Set of the pool's utilization gauges.
	{"parallel.core.s3.label.utilization", "ratio", "higher"},
	{"parallel.gmm.jsd.utilization", "ratio", "higher"},
	{"parallel.core.s2.delta.utilization", "ratio", "higher"},
	// blocking.
	{"core.s3.pairs_scored", "count", "lower"},
	{"core.s3.reduction_ratio", "ratio", "higher"},
	{"core.s3.recall_bound", "ratio", "higher"},
	{"blocking.candidates_s", "s", "lower"},
	// checkpoint, journal and dataset: the durable write path.
	{"checkpoint.saves", "count", "lower"},
	{"checkpoint.save_s", "s", "lower"},
	{"journal.events", "count", "lower"},
	{"journal.bytes", "bytes", "lower"},
	{"dataset.stream.finalize_s", "s", "lower"},
	{"journal.verify_s", "s", "lower"},
	// Go runtime, from the untraced call of each pair.
	{"runtime.cpu_s", "s", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_s", "s", "lower"},
	{"runtime.mallocs_per_entity", "count", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
}

// emit attaches units to values, requiring a value for every spec and
// no value without one.
func emit(specs []metricSpec, values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(specs))
	for _, s := range specs {
		v, ok := values[s.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", s.name)
		}
		out[s.name] = metric{Value: v, Unit: s.unit}
	}
	if len(values) != len(specs) {
		return nil, fmt.Errorf("measured %d metrics, %d are specified", len(values), len(specs))
	}
	return out, nil
}
