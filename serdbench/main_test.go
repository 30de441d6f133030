package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"serd/internal/generator"
	"serd/internal/textsynth"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNamesAndUnits(t *testing.T) {
	seen := map[string]bool{}
	for _, specs := range [][]metricSpec{endToEnd, perLayer} {
		for _, s := range specs {
			if !nameRE.MatchString(s.name) {
				t.Errorf("metric name %q does not match %s", s.name, nameRE)
			}
			if !unitRE.MatchString(s.unit) {
				t.Errorf("metric %s: unit %q does not match %s", s.name, s.unit, unitRE)
			}
			if s.better != "higher" && s.better != "lower" {
				t.Errorf("metric %s: better %q", s.name, s.better)
			}
			if seen[s.name] {
				t.Errorf("metric %s listed twice", s.name)
			}
			seen[s.name] = true
		}
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) {
			t.Errorf("workload name %q does not match %s", w.name, nameRE)
		}
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the code's
// metric and workload tables in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better string
		Bound              float64
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, bj.Workloads[i].Name, w.name)
		}
	}
	for _, tc := range []struct {
		kind  string
		json  []entry
		specs []metricSpec
	}{{"end_to_end", bj.EndToEnd, endToEnd}, {"per_layer", bj.PerLayer, perLayer}} {
		if len(tc.json) != len(tc.specs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the code %d", tc.kind, len(tc.json), len(tc.specs))
			continue
		}
		for i, s := range tc.specs {
			if e := tc.json[i]; e.Name != s.name || e.Unit != s.unit || e.Better != s.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, code %+v", tc.kind, i, e, s)
			}
		}
	}
	for _, e := range bj.EndToEnd {
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %g outside (0, 0.25]", e.Name, e.Bound)
		}
	}
}

// tiny shrinks a workload to smoke-test size while keeping every
// feature — rejection still activates at these sizes.
func tiny(w workload) workload {
	w.sizeA, w.sizeB = 90, 80
	w.matches = w.sizeB * w.matches / w.sizeA
	return w
}

func newTinyBench(t *testing.T, w workload) *bench {
	t.Helper()
	work := t.TempDir()
	b := &bench{w: tiny(w), seed: 7, work: work, log: &testLog{t}, inDir: filepath.Join(work, "input")}
	if err := b.w.writeInput(b.inDir, b.seed); err != nil {
		t.Fatal(err)
	}
	if err := b.setupOnly(); err != nil {
		t.Fatal(err)
	}
	return b
}

type testLog struct{ t *testing.T }

func (l *testLog) Write(p []byte) (int, error) {
	l.t.Log(strings.TrimSpace(string(p)))
	return len(p), nil
}

// TestSmokeEveryWorkload runs each workload at tiny size, untraced and
// traced: every correctness check passes (including the traced output's
// hash equal to the untraced one) and every metric is emitted with its
// unit.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesizes datasets")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			b := newTinyBench(t, w)
			for _, tc := range []struct {
				trace bool
				specs []metricSpec
			}{{false, endToEnd}, {true, perLayer}} {
				var res *result
				var err error
				if tc.trace {
					res, err = b.traced(1e-3)
				} else {
					res, err = b.untraced(1e-3)
				}
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("trace=%v: correct=%v attempted=%d failed=%d", tc.trace, res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(tc.specs) {
					t.Errorf("trace=%v: %d metrics, want %d", tc.trace, len(res.Metrics), len(tc.specs))
				}
				for _, s := range tc.specs {
					m, ok := res.Metrics[s.name]
					if !ok || m.Unit != s.unit {
						t.Errorf("trace=%v: metric %s = %+v, want unit %s", tc.trace, s.name, m, s.unit)
					}
				}
				for _, name := range []string{"alloc_kib_per_candidate", "setup_s", "peak_rss_mb", "core.s2.attempts", "dist.logpdf.calls", "candidates_per_cpu_s", "core.synthesize.candidates_per_s"} {
					if m, ok := res.Metrics[name]; ok && !(m.Value > 0) {
						t.Errorf("trace=%v: %s = %g, want > 0", tc.trace, name, m.Value)
					}
				}
			}
		})
	}
}

// TestRunPrintsOneResultLine drives the command entry point.
func TestRunPrintsOneResultLine(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesizes datasets")
	}
	defer func(full []workload) { workloads = full }(workloads)
	workloads = []workload{tiny(workloads[0])}
	var out, errOut bytes.Buffer
	err := run([]string{"--workload", workloads[0].name, "--seed", "3", "--seconds", "0.001", "--trace", "0", "-work", t.TempDir()}, &out, &errOut)
	if err != nil {
		t.Fatalf("%v\n%s", err, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted != minCalls {
		t.Fatalf("result %+v", res)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "dblp-rejection", "--trace", "2"},
		{"--workload", "dblp-rejection", "--seconds", "0"},
		{"--workload", "dblp-rejection", "extra"},
	} {
		var out, errOut bytes.Buffer
		if err := run(append(args, "-work", t.TempDir()), &out, &errOut); err == nil {
			t.Errorf("%q: no error", args)
		}
		if out.Len() != 0 {
			t.Errorf("%q: printed %q", args, out.String())
		}
	}
}

// TestWrappersConcurrent exercises the traced wrappers from several
// goroutines at once, as the gmm.jsd pool does; run it with -race.
func TestWrappersConcurrent(t *testing.T) {
	b := newTinyBench(t, workloads[0])
	s, err := b.w.open(b.inDir, t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	dc := &distCounters{}
	gen := countingGen{inner: generator.GMM{}, c: dc}
	d, err := gen.Fit(context.Background(), s.real, generator.FitOptions{Rand: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
	sb := &busy{}
	synths := countSynths(map[string]textsynth.Synthesizer{"title": s.synths["title"]}, sb)
	rec := newRecorder()
	const goroutines, per = 8, 200
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < per; i++ {
				x, _ := d.Sample(r)
				d.LogPDF(x)
				d.IsMatch(x)
				synths["title"].Synthesize("efficient query processing", 0.5, r)
				rec.Add("c", 1)
				rec.Set("g", float64(g))
				rec.StartSpan("s").End()
			}
		}(g)
	}
	wg.Wait()
	const total = goroutines * per
	for name, got := range map[string]int64{
		"sample":     dc.sample.calls.Load(),
		"logpdf":     dc.logpdf.calls.Load(),
		"posterior":  dc.posterior.calls.Load(),
		"synthesize": sb.calls.Load(),
	} {
		if got != total {
			t.Errorf("%s calls = %d, want %d", name, got, total)
		}
	}
	if got := rec.counter("c"); got != total {
		t.Errorf("counter = %g, want %d", got, total)
	}
	if got, want := rec.gaugeMean("g"), float64(goroutines-1)/2; got != want {
		t.Errorf("gauge mean = %g, want %g", got, want)
	}
	if !(rec.spanS("s") > 0) || rec.spanEnd("s").IsZero() {
		t.Error("span not recorded")
	}
	// State/FromState pass the inner Dist through: the wrapped and the
	// bare backend write the same checkpoint bytes.
	wrapped, err := gen.State(d)
	if err != nil {
		t.Fatal(err)
	}
	bare, err := generator.GMM{}.State(d.(*countingDist).inner)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wrapped, bare) {
		t.Error("wrapped State differs from the bare backend's")
	}
	back, err := gen.FromState(wrapped)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := back.(*countingDist); !ok {
		t.Errorf("FromState returned %T, want the counting wrapper", back)
	}
}
