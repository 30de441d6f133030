package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMatMul(t *testing.T) {
	a := MatFromRows([][]float64{{1, 2}, {3, 4}})
	b := MatFromRows([][]float64{{5, 6}, {7, 8}})
	c := a.Mul(b)
	want := [][]float64{{19, 22}, {43, 50}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if c.At(i, j) != want[i][j] {
				t.Errorf("c[%d][%d] = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestMatMulIdentity(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	a := NewMat(4, 4)
	for i := range a.Data {
		a.Data[i] = r.NormFloat64()
	}
	c := a.Mul(Identity(4))
	for i := range a.Data {
		if c.Data[i] != a.Data[i] {
			t.Fatal("A·I != A")
		}
	}
}

func TestTranspose(t *testing.T) {
	a := MatFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	at := a.T()
	if at.Rows != 3 || at.Cols != 2 {
		t.Fatalf("T dims = %dx%d", at.Rows, at.Cols)
	}
	if at.At(2, 1) != 6 || at.At(0, 1) != 4 {
		t.Error("transpose values wrong")
	}
}

func TestCholeskyReconstructs(t *testing.T) {
	// A = LLᵀ for a hand-built SPD matrix.
	a := MatFromRows([][]float64{
		{4, 2, 0.6},
		{2, 3, 0.4},
		{0.6, 0.4, 2},
	})
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	back := l.Mul(l.T())
	for i := range a.Data {
		if math.Abs(back.Data[i]-a.Data[i]) > 1e-10 {
			t.Fatalf("LLᵀ differs at %d: %v vs %v", i, back.Data[i], a.Data[i])
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := MatFromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := Cholesky(a); err == nil {
		t.Fatal("expected error for indefinite matrix")
	}
}

func TestForwardBackSolve(t *testing.T) {
	a := MatFromRows([][]float64{
		{4, 2},
		{2, 3},
	})
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	b := []float64{1, 2}
	// Solve A x = b via L (L y = b; Lᵀ x = y), check residual.
	y := ForwardSolve(l, b)
	x := BackSolve(l, y)
	for i := 0; i < 2; i++ {
		got := a.At(i, 0)*x[0] + a.At(i, 1)*x[1]
		if math.Abs(got-b[i]) > 1e-10 {
			t.Fatalf("residual row %d: %v vs %v", i, got, b[i])
		}
	}
}

func TestMVNUnivariateMatchesClosedForm(t *testing.T) {
	cov := MatFromRows([][]float64{{2.25}}) // σ = 1.5
	d, err := NewMVN([]float64{1}, cov)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{-2, 0, 1, 3.7} {
		want := math.Exp(-0.5*(x-1)*(x-1)/2.25) / math.Sqrt(2*math.Pi*2.25)
		if got := d.PDF([]float64{x}); math.Abs(got-want) > 1e-12 {
			t.Errorf("PDF(%v) = %v, want %v", x, got, want)
		}
	}
}

func TestMVNPDFPeaksAtMean(t *testing.T) {
	cov := MatFromRows([][]float64{{1, 0.3}, {0.3, 2}})
	mean := []float64{0.5, -1}
	d, err := NewMVN(mean, cov)
	if err != nil {
		t.Fatal(err)
	}
	peak := d.LogPDF(mean)
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		x := []float64{mean[0] + r.NormFloat64(), mean[1] + r.NormFloat64()}
		if x[0] == mean[0] && x[1] == mean[1] {
			continue
		}
		if d.LogPDF(x) > peak {
			t.Fatalf("density at %v exceeds density at mean", x)
		}
	}
}

func TestMVNSampleMoments(t *testing.T) {
	cov := MatFromRows([][]float64{{1, 0.5}, {0.5, 1.5}})
	mean := []float64{2, -3}
	d, err := NewMVN(mean, cov)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(11))
	const n = 20000
	xs := make([][]float64, n)
	for i := range xs {
		xs[i] = d.Sample(r)
	}
	m := MeanVector(xs)
	for j := range mean {
		if math.Abs(m[j]-mean[j]) > 0.05 {
			t.Errorf("sample mean[%d] = %v, want %v", j, m[j], mean[j])
		}
	}
	c := CovarianceMatrix(xs, m)
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if math.Abs(c.At(i, j)-cov.At(i, j)) > 0.08 {
				t.Errorf("sample cov[%d][%d] = %v, want %v", i, j, c.At(i, j), cov.At(i, j))
			}
		}
	}
}

func TestRegularizeCovariance(t *testing.T) {
	// A singular covariance (perfectly correlated dims) becomes factorizable
	// after ridging.
	cov := MatFromRows([][]float64{{1, 1}, {1, 1}})
	if _, err := Cholesky(cov); err == nil {
		t.Fatal("expected singular covariance to fail Cholesky")
	}
	RegularizeCovariance(cov, 1e-6)
	if _, err := Cholesky(cov); err != nil {
		t.Fatalf("regularized covariance still fails: %v", err)
	}
}

func TestMeanAndCovariance(t *testing.T) {
	xs := [][]float64{{1, 2}, {3, 4}, {5, 6}}
	m := MeanVector(xs)
	if m[0] != 3 || m[1] != 4 {
		t.Fatalf("mean = %v", m)
	}
	c := CovarianceMatrix(xs, m)
	// var of {1,3,5} around 3 with 1/n = 8/3.
	if math.Abs(c.At(0, 0)-8.0/3.0) > 1e-12 {
		t.Errorf("cov[0][0] = %v", c.At(0, 0))
	}
	if c.At(0, 1) != c.At(1, 0) {
		t.Error("covariance not symmetric")
	}
}

func TestCholeskyDiagonalProperty(t *testing.T) {
	// Property: for any diagonal matrix with positive entries, Cholesky is
	// the elementwise square root.
	err := quick.Check(func(a, b, c uint8) bool {
		d := MatFromRows([][]float64{
			{float64(a) + 1, 0, 0},
			{0, float64(b) + 1, 0},
			{0, 0, float64(c) + 1},
		})
		l, err := Cholesky(d)
		if err != nil {
			return false
		}
		for i := 0; i < 3; i++ {
			if math.Abs(l.At(i, i)*l.At(i, i)-d.At(i, i)) > 1e-9 {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestMVNDimMismatch(t *testing.T) {
	if _, err := NewMVN([]float64{0, 0}, Identity(3)); err == nil {
		t.Fatal("expected dimension mismatch error")
	}
}

// refLogPDF is the reference MVN log density: materialize x-μ, solve with
// ForwardSolve, sum the squares, then add the normalizer term by term.
func refLogPDF(mean []float64, cov *Mat, x []float64) float64 {
	l, err := Cholesky(cov)
	if err != nil {
		panic(err)
	}
	logDet := 0.0
	for i := 0; i < l.Rows; i++ {
		logDet += 2 * math.Log(l.At(i, i))
	}
	diff := make([]float64, len(x))
	for i := range diff {
		diff[i] = x[i] - mean[i]
	}
	quad := 0.0
	for _, v := range ForwardSolve(l, diff) {
		quad += v * v
	}
	return -0.5 * (float64(len(x))*math.Log(2*math.Pi) + logDet + quad)
}

// randomSPD returns A·Aᵀ + 0.1·I for a random k×k A.
func randomSPD(r *rand.Rand, k int) *Mat {
	a := NewMat(k, k)
	for i := range a.Data {
		a.Data[i] = r.NormFloat64()
	}
	return RegularizeCovariance(a.Mul(a.T()), 0.1)
}

// TestMVNLogPDFMatchesForwardSolve holds the in-place solve bit-identical
// to the ForwardSolve reference on random SPD covariances, including
// dimensions past the stack buffer.
func TestMVNLogPDFMatchesForwardSolve(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for _, k := range []int{1, 2, 5, 16, 17, 24} {
		for trial := 0; trial < 20; trial++ {
			cov := randomSPD(r, k)
			mean := make([]float64, k)
			for i := range mean {
				mean[i] = r.NormFloat64()
			}
			d, err := NewMVN(mean, cov)
			if err != nil {
				t.Fatal(err)
			}
			for s := 0; s < 10; s++ {
				x := make([]float64, k)
				for i := range x {
					x[i] = mean[i] + 2*r.NormFloat64()
				}
				if got, want := d.LogPDF(x), refLogPDF(mean, cov, x); got != want {
					t.Fatalf("k=%d: LogPDF = %v, ForwardSolve reference = %v", k, got, want)
				}
			}
		}
	}
}

func TestMVNLogPDFDoesNotAllocate(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	d, err := NewMVN(make([]float64, 8), randomSPD(r, 8))
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8}
	if n := testing.AllocsPerRun(100, func() { d.LogPDF(x) }); n != 0 {
		t.Errorf("MVN.LogPDF allocates %v times per call, want 0", n)
	}
}
