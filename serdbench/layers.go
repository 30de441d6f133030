package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"serd/internal/dataset"
	"serd/internal/generator"
	"serd/internal/gmm"
	"serd/internal/parallel"
)

const (
	// jsdSamples is core.Options.JSDSamples' default, the sample count of
	// every Eq. 10 estimate on the benchmark's workloads.
	jsdSamples = 128
	// replayBatches is how many timed batches each kernel replay makes;
	// it reports the median batch.
	replayBatches = 7
	// replayBatchS is the target duration of one replay batch.
	replayBatchS = 0.05
	// simPairsSide bounds the synthesized entities per side whose pairs
	// the SimVector replay scores.
	simPairsSide = 64
)

// traced measures the per-layer metrics. Each pair of calls runs the same
// seed untraced then traced: the untraced call gives the runtime metrics
// and the overhead base, the traced call the layer counters, and the two
// outputs must hash the same. Kernel replays run once, on the last traced
// call's output and O_real.
func (b *bench) traced(seconds float64) (*result, error) {
	res := &result{}
	samples := map[string][]float64{}
	var last *call
	start := time.Now()
	for n := 0; ; n++ {
		if n >= 1 && !fits(start, seconds, n) {
			break
		}
		seed := b.callSeed(n)
		res.Attempted += 2
		u, err := b.synthesize(seed, false)
		if err != nil {
			res.Failed += 2
			fmt.Fprintf(b.log, "pair %d untraced: %v\n", n, err)
			continue
		}
		t, err := b.synthesize(seed, true)
		if err == nil && t.sha != u.sha {
			err = fmt.Errorf("traced output %.12s… differs from untraced %.12s…", t.sha, u.sha)
		}
		if err != nil {
			res.Failed++
			fmt.Fprintf(b.log, "pair %d traced: %v\n", n, err)
			continue
		}
		for name, v := range b.layerValues(u, t) {
			samples[name] = append(samples[name], v)
		}
		last = t
	}
	res.Correct = res.Failed == 0
	values := make(map[string]float64, len(perLayer))
	for name, xs := range samples {
		values[name] = median(xs)
	}
	if last == nil {
		// Every pair failed; report zeros so the failure count is visible.
		for _, s := range perLayer {
			values[s.name] = 0
		}
	} else if err := b.replay(last, values); err != nil {
		return nil, err
	}
	var err error
	if res.Metrics, err = emit(perLayer, values); err != nil {
		return nil, err
	}
	return res, nil
}

// layerValues derives one pair's per-layer metrics (all but the replays).
func (b *bench) layerValues(u, t *call) map[string]float64 {
	rec := t.rec
	attempts := rec.counter("core.s2.attempts")
	pairs := float64(t.syn.A.Len()) * float64(t.syn.B.Len())
	reduction, recall := 0.0, 1.0
	if b.w.blocked {
		pairs = rec.gaugeMean("core.s3.candidates")
		reduction = rec.gaugeMean("core.s3.reduction_ratio")
		recall = rec.gaugeMean("core.s3.recall_bound")
	}
	return map[string]float64{
		"core.synthesize.entities_per_s":     float64(u.entities) / u.wallS,
		"core.synthesize.candidates_per_s":   float64(u.candidates) / u.wallS,
		"core.synthesize.alloc_mb":           u.allocMB,
		"core.synthesize.jsd":                u.jsd,
		"core.s1.wall_s":                     rec.spanS("core.s1"),
		"core.s2.wall_s":                     rec.spanS("core.s2"),
		"core.s2.entities_per_s":             rec.gaugeMean("core.s2.entities_per_sec"),
		"core.s3.wall_s":                     rec.spanS("core.s3"),
		"core.finalize.wall_s":               t.s3EndToRet,
		"core.s2.attempts":                   attempts,
		"core.s2.acceptance_ratio":           rec.counter("core.s2.accepted") / attempts,
		"core.s2.rejected_distribution":      rec.counter("core.s2.rejected.distribution"),
		"dist.sample.calls":                  float64(t.dist.sample.calls.Load()),
		"dist.sample.busy_s":                 t.dist.sample.seconds(),
		"dist.logpdf.calls":                  float64(t.dist.logpdf.calls.Load()),
		"dist.logpdf.busy_s":                 t.dist.logpdf.seconds(),
		"dist.posterior.calls":               float64(t.dist.posterior.calls.Load()),
		"dist.posterior.busy_s":              t.dist.posterior.seconds(),
		"gmm.em.fits":                        rec.counter("gmm.em.fits"),
		"gmm.em.iterations":                  rec.counter("gmm.em.iterations"),
		"textsynth.synthesize.calls":         float64(t.synth.calls.Load()),
		"textsynth.synthesize.busy_s":        t.synth.seconds(),
		"parallel.core.s3.label.utilization": rec.gaugeMean("core.s3.label.parallel.utilization"),
		"parallel.gmm.jsd.utilization":       rec.gaugeMean("gmm.jsd.parallel.utilization"),
		"parallel.core.s2.delta.utilization": rec.gaugeMean("core.s2.delta.parallel.utilization"),
		"core.s3.pairs_scored":               pairs,
		"core.s3.reduction_ratio":            reduction,
		"core.s3.recall_bound":               recall,
		"checkpoint.saves":                   rec.counter("checkpoint.saves"),
		"checkpoint.save_s":                  rec.spanS("checkpoint.save"),
		"journal.events":                     float64(t.journal.events),
		"journal.bytes":                      float64(t.journal.bytes),
		"dataset.stream.finalize_s":          t.finalizeS,
		"journal.verify_s":                   t.verifyS,
		"runtime.cpu_s":                      u.cpuS,
		"runtime.gc_cycles":                  float64(u.gcCycles),
		"runtime.gc_pause_s":                 u.gcPauseS,
		"runtime.mallocs_per_entity":         float64(u.mallocs) / float64(u.entities),
		"trace.overhead_ratio":               t.wallS / u.wallS,
	}
}

// replay times public kernels on the workload's own data: the Eq. 10
// estimator gmm.JSDStriped between an O_syn fitted to the synthesized
// dataset and O_real, SimCache.SimVector over synthesized pairs, and the
// title q-gram blocker's candidate generation over the synthesized tables
// (what the blocked workloads run; on the exact workload, the cost it
// avoids paying).
func (b *bench) replay(t *call, values map[string]float64) error {
	oReal := t.res.OReal
	if cd, ok := oReal.(*countingDist); ok {
		oReal = cd.inner
	}
	oSyn, err := generator.FitGMM(context.Background(), t.syn, generator.FitOptions{
		MaxComponents:   2,
		NoHardNegatives: true,
		Rand:            rand.New(rand.NewSource(b.seed)),
	}, false)
	if err != nil {
		return fmt.Errorf("fitting the replay O_syn: %w", err)
	}
	pool := parallel.New(0, nil)
	values["gmm.jsd_striped.ns_per_call"], values["gmm.jsd_striped.allocs_per_call"] = timeKernel(func(i int) {
		gmm.JSDStriped(oSyn, oReal, jsdSamples, int64(i), pool)
	})

	cache := dataset.NewSimCache(t.syn.Schema())
	as, bs := t.syn.A.Entities, t.syn.B.Entities
	as, bs = as[:min(len(as), simPairsSide)], bs[:min(len(bs), simPairsSide)]
	pass := func() {
		for _, a := range as {
			for _, e := range bs {
				cache.SimVector(a, e)
			}
		}
	}
	pass() // S3 scores against a warm prep cache
	perPass, _ := timeKernel(func(int) { pass() })
	values["simfn.simvector.ns_per_pair"] = perPass / float64(len(as)*len(bs))

	values["blocking.candidates_s"], err = medianOf(5, func() error {
		_, err := titleQGram.Candidates(t.syn.A, t.syn.B)
		return err
	})
	return err
}

// timeKernel calls fn in replayBatches batches sized to about
// replayBatchS each and returns the median ns per call and the mean
// allocations per call.
func timeKernel(fn func(i int)) (nsPerCall, allocsPerCall float64) {
	t0 := time.Now()
	fn(0)
	per := time.Since(t0).Seconds()
	batch := max(1, int(replayBatchS/max(per, 1e-9)))
	ns := make([]float64, replayBatches)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	calls := 0
	for k := range ns {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			fn(calls + i)
		}
		ns[k] = float64(time.Since(t0).Nanoseconds()) / float64(batch)
		calls += batch
	}
	runtime.ReadMemStats(&m1)
	return median(ns), float64(m1.Mallocs-m0.Mallocs) / float64(calls)
}
