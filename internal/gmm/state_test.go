package gmm

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"serd/internal/stats"
)

// fittedForState fits a small 2-D mixture the way the pipeline does, so
// round-trip tests exercise realistic (renormalized, regularized) states.
func fittedForState(t *testing.T, seed int64, n int) (*Model, [][]float64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	xs := make([][]float64, n)
	for i := range xs {
		c := float64(i%2) * 0.6
		xs[i] = []float64{c + 0.1*r.NormFloat64(), c + 0.1*r.NormFloat64()}
	}
	m, err := FitAIC(context.Background(), xs, 2, FitOptions{Rand: r})
	if err != nil {
		t.Fatal(err)
	}
	return m, xs
}

// TestModelStateRoundTripExact pins that ModelFromState restores every bit:
// identical serialized state, identical densities and identical sample
// streams. This is what resume equivalence rests on — note that a round trip
// through New (which renormalizes weights) would NOT pass this.
func TestModelStateRoundTripExact(t *testing.T) {
	m, xs := fittedForState(t, 11, 60)
	st := m.State()
	restored, err := ModelFromState(st)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(restored.State(), st) {
		t.Fatal("restored model state differs from snapshot")
	}
	for i, x := range xs {
		if a, b := m.LogPDF(x), restored.LogPDF(x); a != b {
			t.Fatalf("LogPDF(%d): %v != %v", i, a, b)
		}
	}
	ra, rb := rand.New(rand.NewSource(5)), rand.New(rand.NewSource(5))
	for i := 0; i < 50; i++ {
		if !reflect.DeepEqual(m.Sample(ra), restored.Sample(rb)) {
			t.Fatalf("sample %d diverged", i)
		}
	}
}

func TestJointStateRoundTripExact(t *testing.T) {
	m, _ := fittedForState(t, 3, 50)
	n, _ := fittedForState(t, 4, 70)
	j, err := NewJoint(m, n, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := JointFromState(j.State())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(restored.State(), j.State()) {
		t.Fatal("restored joint state differs")
	}
	ra, rb := rand.New(rand.NewSource(8)), rand.New(rand.NewSource(8))
	for i := 0; i < 40; i++ {
		xa, ma := j.Sample(ra)
		xb, mb := restored.Sample(rb)
		if ma != mb || !reflect.DeepEqual(xa, xb) {
			t.Fatalf("sample %d diverged", i)
		}
	}
}

// TestAccumulatorStateRoundTripExact checkpoints an accumulator mid-stream
// and verifies the restored copy folds further vectors to bit-identical
// parameters — the S2 rejection state must continue exactly on resume.
func TestAccumulatorStateRoundTripExact(t *testing.T) {
	m, xs := fittedForState(t, 21, 80)
	acc, err := NewAccumulator(m, xs[:40], 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := acc.Add(xs[40:50]); err != nil {
		t.Fatal(err)
	}

	st := acc.State()
	restored, err := AccumulatorFromState(st)
	if err != nil {
		t.Fatal(err)
	}
	if restored.N() != acc.N() {
		t.Fatalf("N = %d, want %d", restored.N(), acc.N())
	}
	if !reflect.DeepEqual(restored.State(), st) {
		t.Fatal("restored accumulator state differs from snapshot")
	}

	// Continue both with the same folds; models must stay bit-identical.
	for i := 50; i < 80; i += 10 {
		if err := acc.Add(xs[i : i+10]); err != nil {
			t.Fatal(err)
		}
		if err := restored.Add(xs[i : i+10]); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(acc.Model().State(), restored.Model().State()) {
			t.Fatalf("models diverged after folding through %d", i+10)
		}
	}
}

func TestStateValidation(t *testing.T) {
	if _, err := ModelFromState(nil); err == nil {
		t.Error("ModelFromState(nil) accepted")
	}
	if _, err := ModelFromState(&ModelState{}); err == nil {
		t.Error("empty ModelState accepted")
	}
	if _, err := JointFromState(nil); err == nil {
		t.Error("JointFromState(nil) accepted")
	}
	if _, err := AccumulatorFromState(nil); err == nil {
		t.Error("AccumulatorFromState(nil) accepted")
	}
	m, _ := fittedForState(t, 2, 40)
	bad := m.State()
	bad.Comps[0].Cov = bad.Comps[0].Cov[:1] // truncated covariance
	if _, err := ModelFromState(bad); err == nil {
		t.Error("truncated covariance accepted")
	}
}

// TestFromStateRebuildsCaches pins the single component constructor: a
// model restored from its State carries the same cached log-weights and
// MVN normalizers as the original, field for field, and so the same
// LogPDF bits — for a fitted model and for one whose singular covariance
// took the DefaultRidge path.
func TestFromStateRebuildsCaches(t *testing.T) {
	fitted, xs := fittedForState(t, 17, 60)
	singular, err := New([]Component{
		{Weight: 3, Mean: []float64{0.2, 0.2}, Cov: stats.MatFromRows([][]float64{{1, 1}, {1, 1}})},
		{Weight: 1, Mean: []float64{0.8, 0.5}, Cov: stats.MatFromRows([][]float64{{0.05, 0}, {0, 0.02}})},
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range map[string]*Model{"fitted": fitted, "regularized": singular} {
		restored, err := ModelFromState(m.State())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(restored.Comps, m.Comps) {
			t.Errorf("%s: restored components (caches included) differ from the original", name)
		}
		for i, x := range xs {
			if a, b := m.LogPDF(x), restored.LogPDF(x); a != b {
				t.Fatalf("%s: LogPDF(%d): %v != %v", name, i, a, b)
			}
		}
	}
}
