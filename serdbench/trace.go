package main

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"serd/internal/dataset"
	"serd/internal/generator"
	"serd/internal/telemetry"
	"serd/internal/textsynth"
)

// The traced run observes the pipeline only through interfaces it already
// accepts: Options.Metrics (recorder), Options.Synthesizers
// (countingSynth) and Options.Generator with the Dist it returns
// (countingGen/countingDist). Nothing here draws from an RNG or changes an
// argument, so a traced run must write the same bytes as an untraced one;
// the benchmark checks that on every traced run.

// recorder is a telemetry.Recorder that keeps what the per-layer metrics
// need: counter totals, the mean over every Set of each gauge, and the
// summed duration of each span name. Safe for concurrent use.
type recorder struct {
	mu       sync.Mutex
	counters map[string]float64
	gauges   map[string]*gaugeAgg
	spans    map[string]float64
	ends     map[string]time.Time
}

type gaugeAgg struct {
	sum float64
	n   int
}

func newRecorder() *recorder {
	return &recorder{counters: map[string]float64{}, gauges: map[string]*gaugeAgg{}, spans: map[string]float64{}, ends: map[string]time.Time{}}
}

func (r *recorder) Add(name string, delta float64) {
	r.mu.Lock()
	r.counters[name] += delta
	r.mu.Unlock()
}

func (r *recorder) Set(name string, value float64) {
	r.mu.Lock()
	g := r.gauges[name]
	if g == nil {
		g = &gaugeAgg{}
		r.gauges[name] = g
	}
	g.sum += value
	g.n++
	r.mu.Unlock()
}

func (r *recorder) Observe(string, float64) {}

func (r *recorder) StartSpan(name string) telemetry.Span {
	return &span{r: r, name: name, start: time.Now()}
}

type span struct {
	r     *recorder
	name  string
	start time.Time
}

func (s *span) End() {
	end := time.Now()
	s.r.mu.Lock()
	s.r.spans[s.name] += end.Sub(s.start).Seconds()
	s.r.ends[s.name] = end
	s.r.mu.Unlock()
}

func (r *recorder) counter(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[name]
}

func (r *recorder) spanS(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans[name]
}

// spanEnd is when the last span of the name ended.
func (r *recorder) spanEnd(name string) time.Time {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ends[name]
}

// gaugeMean is the mean over every Set of the gauge, 0 if never set.
func (r *recorder) gaugeMean(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil || g.n == 0 {
		return 0
	}
	return g.sum / float64(g.n)
}

// busy counts calls and the wall time spent inside them. Callers from
// several goroutines (the gmm.jsd pool workers call LogPDF and Sample)
// update it concurrently, hence the atomics.
type busy struct {
	calls atomic.Int64
	ns    atomic.Int64
}

func (b *busy) done(t0 time.Time) {
	b.ns.Add(int64(time.Since(t0)))
	b.calls.Add(1)
}

func (b *busy) seconds() float64 { return float64(b.ns.Load()) / 1e9 }

// distCounters aggregates every counted call into the fitted O_real.
type distCounters struct {
	sample, logpdf, posterior busy
}

// countingDist forwards to the fitted O_real and counts its three call
// families: sampling (S2-2 and the JSD estimator's q-side draws), LogPDF
// (the JSD estimator) and the posterior (ΔX labeling and S3).
type countingDist struct {
	inner generator.Dist
	c     *distCounters
}

func (d *countingDist) Dim() int { return d.inner.Dim() }

func (d *countingDist) Sample(r *rand.Rand) ([]float64, bool) {
	defer d.c.sample.done(time.Now())
	return d.inner.Sample(r)
}

func (d *countingDist) SampleMatching(r *rand.Rand) []float64 {
	defer d.c.sample.done(time.Now())
	return d.inner.SampleMatching(r)
}

func (d *countingDist) SampleNonMatching(r *rand.Rand) []float64 {
	defer d.c.sample.done(time.Now())
	return d.inner.SampleNonMatching(r)
}

func (d *countingDist) PosteriorMatch(x []float64) float64 {
	defer d.c.posterior.done(time.Now())
	return d.inner.PosteriorMatch(x)
}

func (d *countingDist) IsMatch(x []float64) bool {
	defer d.c.posterior.done(time.Now())
	return d.inner.IsMatch(x)
}

func (d *countingDist) LogPDF(x []float64) float64 {
	defer d.c.logpdf.done(time.Now())
	return d.inner.LogPDF(x)
}

// countingGen wraps an S1 backend so the Dist it fits is counted. State
// and FromState pass the inner Dist through to the backend, so
// checkpoints hold exactly the bytes the bare backend would write.
type countingGen struct {
	inner generator.Generator
	c     *distCounters
}

func (g countingGen) Name() string     { return g.inner.Name() }
func (g countingGen) Describe() string { return g.inner.Describe() }

func (g countingGen) Fit(ctx context.Context, real *dataset.ER, opts generator.FitOptions) (generator.Dist, error) {
	d, err := g.inner.Fit(ctx, real, opts)
	if err != nil {
		return nil, err
	}
	return &countingDist{inner: d, c: g.c}, nil
}

func (g countingGen) State(d generator.Dist) ([]byte, error) {
	if cd, ok := d.(*countingDist); ok {
		d = cd.inner
	}
	return g.inner.State(d)
}

func (g countingGen) FromState(data []byte) (generator.Dist, error) {
	d, err := g.inner.FromState(data)
	if err != nil {
		return nil, err
	}
	return &countingDist{inner: d, c: g.c}, nil
}

// countingSynth counts S2-3's string synthesis calls of one column.
type countingSynth struct {
	inner textsynth.Synthesizer
	b     *busy
}

func (s countingSynth) Synthesize(v string, target float64, r *rand.Rand) (string, float64) {
	defer s.b.done(time.Now())
	return s.inner.Synthesize(v, target, r)
}

// countSynths wraps every column's synthesizer around one shared counter.
func countSynths(in map[string]textsynth.Synthesizer, b *busy) map[string]textsynth.Synthesizer {
	out := make(map[string]textsynth.Synthesizer, len(in))
	for col, s := range in {
		out[col] = countingSynth{inner: s, b: b}
	}
	return out
}
