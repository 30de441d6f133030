package generator

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"testing"

	"serd/internal/datagen"
	"serd/internal/dataset"
	"serd/internal/gmm"
	"serd/internal/journal"
	"serd/internal/parallel"
)

func fixture(t *testing.T) *dataset.ER {
	t.Helper()
	gen, err := datagen.Restaurant(datagen.Config{Seed: 3, SizeA: 40, SizeB: 40, Matches: 12, BackgroundPerColumn: 60})
	if err != nil {
		t.Fatal(err)
	}
	return gen.ER
}

func fitOpts(seed int64) FitOptions {
	return FitOptions{Rand: rand.New(rand.NewSource(seed))}
}

// drawSequence samples n vectors from each of the three sampling entry
// points with a fresh seeded RNG, concatenated — a fingerprint of the
// fitted distribution's exact state.
func drawSequence(d Dist, n int) []float64 {
	r := rand.New(rand.NewSource(42))
	var out []float64
	for i := 0; i < n; i++ {
		v, _ := d.Sample(r)
		out = append(out, v...)
		out = append(out, d.SampleMatching(r)...)
		out = append(out, d.SampleNonMatching(r)...)
	}
	return out
}

func TestBackendsFitDeterministically(t *testing.T) {
	real := fixture(t)
	for _, gen := range []Generator{GMM{}, PrivBayes{Epsilon: 2}} {
		t.Run(gen.Name(), func(t *testing.T) {
			d1, err := gen.Fit(context.Background(), real, fitOpts(7))
			if err != nil {
				t.Fatal(err)
			}
			d2, err := gen.Fit(context.Background(), real, fitOpts(7))
			if err != nil {
				t.Fatal(err)
			}
			s1, err := gen.State(d1)
			if err != nil {
				t.Fatal(err)
			}
			s2, err := gen.State(d2)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(s1, s2) {
				t.Errorf("%s: same-seed fits produced different states", gen.Name())
			}
			a, b := drawSequence(d1, 16), drawSequence(d2, 16)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%s: same-seed fits diverge at draw %d: %v vs %v", gen.Name(), i, a[i], b[i])
				}
			}
		})
	}
}

func TestStateRoundTrip(t *testing.T) {
	real := fixture(t)
	for _, gen := range []Generator{GMM{}, PrivBayes{Epsilon: 2, Bins: 6}} {
		t.Run(gen.Name(), func(t *testing.T) {
			d, err := gen.Fit(context.Background(), real, fitOpts(7))
			if err != nil {
				t.Fatal(err)
			}
			state, err := gen.State(d)
			if err != nil {
				t.Fatal(err)
			}
			restored, err := gen.FromState(state)
			if err != nil {
				t.Fatal(err)
			}
			if restored.Dim() != d.Dim() {
				t.Fatalf("%s: restored dim %d, want %d", gen.Name(), restored.Dim(), d.Dim())
			}
			a, b := drawSequence(d, 16), drawSequence(restored, 16)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%s: restored dist diverges at draw %d: %v vs %v", gen.Name(), i, a[i], b[i])
				}
			}
			x := make([]float64, d.Dim())
			for i := range x {
				x[i] = 0.5
			}
			if lp, lq := d.LogPDF(x), restored.LogPDF(x); lp != lq {
				t.Errorf("%s: LogPDF differs after round trip: %v vs %v", gen.Name(), lp, lq)
			}
		})
	}
}

func TestFromStateRejectsGarbage(t *testing.T) {
	for _, gen := range []Generator{GMM{}, PrivBayes{}} {
		if _, err := gen.FromState([]byte("not gob")); err == nil {
			t.Errorf("%s: FromState accepted garbage", gen.Name())
		}
	}
}

func TestFitHonorsCancellation(t *testing.T) {
	real := fixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, gen := range []Generator{GMM{}, PrivBayes{Epsilon: 2}} {
		if _, err := gen.Fit(ctx, real, fitOpts(7)); err == nil {
			t.Errorf("%s: Fit ignored a cancelled context", gen.Name())
		}
	}
}

// TestPrivBayesChargesOnce pins the accounting contract: one dp_sgd entry
// in group "s1.privbayes" whose accountant-composed ε stays within the
// requested budget, charged before any noise is drawn.
func TestPrivBayesChargesOnce(t *testing.T) {
	real := fixture(t)
	ledger := journal.NewLedger(nil)
	opts := fitOpts(7)
	opts.Privacy = ledger
	const wantEps = 1.5
	if _, err := (PrivBayes{Epsilon: wantEps}).Fit(context.Background(), real, opts); err != nil {
		t.Fatal(err)
	}
	entries := ledger.Entries()
	if len(entries) != 1 {
		t.Fatalf("ledger has %d entries, want 1", len(entries))
	}
	e := entries[0]
	if e.Kind != "dp_sgd" || e.Group != "s1.privbayes" || e.Label != "s1.privbayes" {
		t.Errorf("entry = kind %q label %q group %q", e.Kind, e.Label, e.Group)
	}
	eps, _ := ledger.Total()
	if eps > wantEps+1e-9 {
		t.Errorf("composed ε=%v exceeds budget %v", eps, wantEps)
	}
	if eps < wantEps*0.9 {
		t.Errorf("composed ε=%v far below budget %v: calibration too loose", eps, wantEps)
	}
	if re := e.Recompute(); math.Abs(re-e.Epsilon) > 1e-9 {
		t.Errorf("audit recompute drifts: recorded %v, recomputed %v", e.Epsilon, re)
	}
}

// TestPrivBayesBudgetEnforced: an over-budget fit must fail at the charge,
// before any marginal is released.
func TestPrivBayesBudgetEnforced(t *testing.T) {
	real := fixture(t)
	ledger := journal.NewLedger(nil)
	ledger.SetBudget(0.5, journal.BudgetAbort)
	opts := fitOpts(7)
	opts.Privacy = ledger
	if _, err := (PrivBayes{Epsilon: 2}).Fit(context.Background(), real, opts); err == nil {
		t.Fatal("fit exceeded an enforced budget without error")
	}
}

func TestPrivBayesSamplesInUnitCube(t *testing.T) {
	real := fixture(t)
	d, err := (PrivBayes{Epsilon: 2}).Fit(context.Background(), real, fitOpts(7))
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		v, _ := d.Sample(r)
		if len(v) != d.Dim() {
			t.Fatalf("sample dim %d, want %d", len(v), d.Dim())
		}
		for j, x := range v {
			if x < 0 || x > 1 || math.IsNaN(x) {
				t.Fatalf("sample %d coord %d = %v outside [0,1]", i, j, x)
			}
		}
		p := d.PosteriorMatch(v)
		if p < 0 || p > 1 || math.IsNaN(p) {
			t.Fatalf("posterior %v outside [0,1]", p)
		}
	}
}

func TestGeneratorValidateParams(t *testing.T) {
	real := fixture(t)
	for _, pb := range []PrivBayes{{Epsilon: -1}, {Epsilon: 1, Delta: 1.5}, {Epsilon: 1, Bins: 1}} {
		if _, err := pb.Fit(context.Background(), real, fitOpts(7)); err == nil {
			t.Errorf("PrivBayes%+v: Fit accepted invalid parameters", pb)
		}
	}
}

// TestJSDStripedPairWithPrivBayesReal holds the shared-sample Eq. 10 pair
// bit-identical to two JSDStriped calls when O_real is a PrivBayes
// distribution — a Dist whose sampler consumes the RNG differently from a
// *gmm.Joint — on every pool shape.
func TestJSDStripedPairWithPrivBayesReal(t *testing.T) {
	real := fixture(t)
	oReal, err := (PrivBayes{Epsilon: 2}).Fit(context.Background(), real, fitOpts(7))
	if err != nil {
		t.Fatal(err)
	}
	var syn [2]*gmm.Joint
	for i := range syn {
		d, err := (GMM{}).Fit(context.Background(), real, fitOpts(int64(11+i)))
		if err != nil {
			t.Fatal(err)
		}
		syn[i] = d.(*gmm.Joint)
	}
	for _, n := range []int{31, 96, 200} {
		want1 := gmm.JSDStriped(syn[0], oReal, n, 5, nil)
		want2 := gmm.JSDStriped(syn[1], oReal, n, 5, nil)
		for _, pool := range []*parallel.Pool{nil, parallel.New(1, nil), parallel.New(4, nil)} {
			got1, got2 := gmm.JSDStripedPair(syn[0], syn[1], oReal, n, 5, pool)
			if got1 != want1 || got2 != want2 {
				t.Errorf("n=%d workers=%d: pair = (%v, %v), separate calls = (%v, %v)", n, pool.Workers(), got1, got2, want1, want2)
			}
		}
	}
}

// BenchmarkLearningVectors measures S1's training-set construction (X+,
// the sampled X− and the blocker's hard negatives) at the DBLP-ACM
// benchmark workload's input size.
func BenchmarkLearningVectors(b *testing.B) {
	gen, err := datagen.Scholar(datagen.Config{Seed: 1, SizeA: 250, SizeB: 220, Matches: 212, BackgroundPerColumn: 60})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		opts := FitOptions{Rand: rand.New(rand.NewSource(1))}.WithDefaults(len(gen.ER.Matches))
		if _, _, err := LearningVectors(gen.ER, opts); err != nil {
			b.Fatal(err)
		}
	}
}
