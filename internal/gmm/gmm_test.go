package gmm

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"serd/internal/stats"
)

// twoClusterData draws n points from each of two well-separated Gaussians.
func twoClusterData(r *rand.Rand, n int) [][]float64 {
	xs := make([][]float64, 0, 2*n)
	for i := 0; i < n; i++ {
		xs = append(xs, []float64{0.9 + 0.03*r.NormFloat64(), 0.85 + 0.04*r.NormFloat64()})
	}
	for i := 0; i < n; i++ {
		xs = append(xs, []float64{0.1 + 0.03*r.NormFloat64(), 0.15 + 0.04*r.NormFloat64()})
	}
	return xs
}

func TestFitRecoverTwoClusters(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	xs := twoClusterData(r, 400)
	m, err := Fit(context.Background(), xs, 2, FitOptions{Rand: r})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Comps) != 2 {
		t.Fatalf("got %d components", len(m.Comps))
	}
	// One component near (0.9, 0.85), one near (0.1, 0.15), weights ~0.5.
	var hi, lo *Component
	for i := range m.Comps {
		if m.Comps[i].Mean[0] > 0.5 {
			hi = &m.Comps[i]
		} else {
			lo = &m.Comps[i]
		}
	}
	if hi == nil || lo == nil {
		t.Fatalf("components did not separate: %+v", m.Comps)
	}
	if math.Abs(hi.Mean[0]-0.9) > 0.02 || math.Abs(lo.Mean[0]-0.1) > 0.02 {
		t.Errorf("means off: hi %v lo %v", hi.Mean, lo.Mean)
	}
	if math.Abs(hi.Weight-0.5) > 0.05 {
		t.Errorf("weight = %v, want ~0.5", hi.Weight)
	}
}

func TestFitImprovesLikelihoodOverSingleGaussian(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	xs := twoClusterData(r, 300)
	m1, err := Fit(context.Background(), xs, 1, FitOptions{Rand: r})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Fit(context.Background(), xs, 2, FitOptions{Rand: r})
	if err != nil {
		t.Fatal(err)
	}
	if m2.LogLikelihood(xs) <= m1.LogLikelihood(xs) {
		t.Error("2-component fit should beat 1-component on bimodal data")
	}
}

func TestFitAICSelectsTwoComponents(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	xs := twoClusterData(r, 300)
	m, err := FitAIC(context.Background(), xs, 4, FitOptions{Rand: r})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Comps) < 2 {
		t.Errorf("AIC chose %d components for clearly bimodal data", len(m.Comps))
	}
}

func TestFitDegenerateConstantColumn(t *testing.T) {
	// Matching pairs frequently have a constant similarity of 1 in one
	// column; the ridge must keep the fit well-defined.
	r := rand.New(rand.NewSource(4))
	xs := make([][]float64, 100)
	for i := range xs {
		xs[i] = []float64{1.0, 0.5 + 0.1*r.NormFloat64()}
	}
	m, err := Fit(context.Background(), xs, 1, FitOptions{Rand: r})
	if err != nil {
		t.Fatal(err)
	}
	if p := m.PDF([]float64{1, 0.5}); math.IsNaN(p) || math.IsInf(p, 0) || p <= 0 {
		t.Errorf("PDF at center = %v", p)
	}
}

func TestFitErrors(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	if _, err := Fit(context.Background(), nil, 2, FitOptions{Rand: r}); err == nil {
		t.Error("expected error for empty data")
	}
	if _, err := Fit(context.Background(), [][]float64{{1}}, 0, FitOptions{Rand: r}); err == nil {
		t.Error("expected error for g=0")
	}
	if _, err := Fit(context.Background(), [][]float64{{1, 2}, {1}}, 1, FitOptions{Rand: r}); err == nil {
		t.Error("expected error for ragged data")
	}
}

func TestResponsibilitiesSumToOne(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	xs := twoClusterData(r, 100)
	m, err := Fit(context.Background(), xs, 3, FitOptions{Rand: r})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		g := m.Responsibilities(xs[i])
		sum := 0.0
		for _, v := range g {
			if v < 0 {
				t.Fatalf("negative responsibility %v", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("responsibilities sum to %v", sum)
		}
	}
}

func TestSampleMatchesFitDistribution(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	xs := twoClusterData(r, 400)
	m, err := Fit(context.Background(), xs, 2, FitOptions{Rand: r})
	if err != nil {
		t.Fatal(err)
	}
	// Refit a model on samples of the model; means should agree.
	ys := make([][]float64, 2000)
	for i := range ys {
		ys[i] = m.Sample(r)
	}
	m2, err := Fit(context.Background(), ys, 2, FitOptions{Rand: r})
	if err != nil {
		t.Fatal(err)
	}
	// Match components by first coordinate.
	hiMean := func(mm *Model) []float64 {
		if mm.Comps[0].Mean[0] > mm.Comps[1].Mean[0] {
			return mm.Comps[0].Mean
		}
		return mm.Comps[1].Mean
	}
	a, b := hiMean(m), hiMean(m2)
	for j := range a {
		if math.Abs(a[j]-b[j]) > 0.05 {
			t.Errorf("refit mean[%d] = %v, want %v", j, b[j], a[j])
		}
	}
}

func TestSampleClampedStaysInUnitBox(t *testing.T) {
	comps := []Component{{
		Weight: 1,
		Mean:   []float64{0.99, 0.01},
		Cov:    stats.MatFromRows([][]float64{{0.05, 0}, {0, 0.05}}),
	}}
	m, err := New(comps)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(8))
	for i := 0; i < 500; i++ {
		x := m.SampleClamped(r)
		for _, v := range x {
			if v < 0 || v > 1 {
				t.Fatalf("clamped sample out of range: %v", x)
			}
		}
	}
}

func TestNumParams(t *testing.T) {
	comps := []Component{
		{Weight: 0.5, Mean: []float64{0, 0, 0}, Cov: stats.Identity(3)},
		{Weight: 0.5, Mean: []float64{1, 1, 1}, Cov: stats.Identity(3)},
	}
	m, err := New(comps)
	if err != nil {
		t.Fatal(err)
	}
	// 2 * (3 + 6) + 1 = 19
	if got := m.NumParams(); got != 19 {
		t.Errorf("NumParams = %d, want 19", got)
	}
}

func TestNewNormalizesWeights(t *testing.T) {
	comps := []Component{
		{Weight: 2, Mean: []float64{0}, Cov: stats.Identity(1)},
		{Weight: 6, Mean: []float64{1}, Cov: stats.Identity(1)},
	}
	m, err := New(comps)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Comps[0].Weight-0.25) > 1e-12 || math.Abs(m.Comps[1].Weight-0.75) > 1e-12 {
		t.Errorf("weights = %v, %v", m.Comps[0].Weight, m.Comps[1].Weight)
	}
}

func TestCloneIsIndependent(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	xs := twoClusterData(r, 100)
	m, err := Fit(context.Background(), xs, 2, FitOptions{Rand: r})
	if err != nil {
		t.Fatal(err)
	}
	c := m.Clone()
	c.Comps[0].Mean[0] = 123
	if m.Comps[0].Mean[0] == 123 {
		t.Error("Clone shares mean storage with original")
	}
}

func TestFitDiagonalCovariance(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	xs := twoClusterData(r, 200)
	m, err := Fit(context.Background(), xs, 2, FitOptions{Rand: r, Diagonal: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range m.Comps {
		for i := 0; i < 2; i++ {
			for j := 0; j < 2; j++ {
				if i != j && c.Cov.At(i, j) != 0 {
					t.Fatalf("off-diagonal covariance %v", c.Cov.At(i, j))
				}
			}
		}
	}
	// Diagonal fit still separates the clusters.
	if p := m.PDF([]float64{0.9, 0.85}); p <= m.PDF([]float64{0.5, 0.5}) {
		t.Error("diagonal fit lost the cluster structure")
	}
}

func TestFitBICPrefersSimplerModelOnSmallData(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	// A small single-cluster sample: BIC should choose 1 component.
	xs := make([][]float64, 30)
	for i := range xs {
		xs[i] = []float64{0.5 + 0.05*r.NormFloat64(), 0.5 + 0.05*r.NormFloat64()}
	}
	m, err := FitBIC(context.Background(), xs, 3, FitOptions{Rand: r})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Comps) != 1 {
		t.Errorf("BIC chose %d components for unimodal 30-sample data", len(m.Comps))
	}
	// And it still finds two components when the data demands them.
	bimodal := twoClusterData(r, 150)
	m, err = FitBIC(context.Background(), bimodal, 3, FitOptions{Rand: r})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Comps) < 2 {
		t.Errorf("BIC chose %d components for clearly bimodal data", len(m.Comps))
	}
}

// TestLogPDFDoesNotAllocate pins the density hot path of the Eq. 10 JSD
// estimator allocation-free: mixture and joint log-densities keep their
// per-component scratch on the stack.
func TestLogPDFDoesNotAllocate(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	m, err := Fit(context.Background(), twoClusterData(r, 200), 2, FitOptions{Rand: r})
	if err != nil {
		t.Fatal(err)
	}
	j, err := NewJoint(m, m.Clone(), 0.3)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{0.4, 0.6}
	if n := testing.AllocsPerRun(100, func() { m.LogPDF(x) }); n != 0 {
		t.Errorf("Model.LogPDF allocates %v times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { j.LogPDF(x) }); n != 0 {
		t.Errorf("Joint.LogPDF allocates %v times per call, want 0", n)
	}
}
