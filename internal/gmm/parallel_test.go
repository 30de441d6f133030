package gmm

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"serd/internal/parallel"
)

// testJoints fits two mildly different O-distributions for JSD tests.
func testJoints(t *testing.T) (*Joint, *Joint) {
	t.Helper()
	r := rand.New(rand.NewSource(7))
	m1, err := Fit(context.Background(), twoClusterData(r, 200), 2, FitOptions{Rand: r})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Fit(context.Background(), twoClusterData(r, 200), 2, FitOptions{Rand: r})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewJoint(m1, m2, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	m3, err := Fit(context.Background(), twoClusterData(r, 150), 2, FitOptions{Rand: r})
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewJoint(m3, m2, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	return p, q
}

// TestJSDStripedWorkerInvariant is the determinism contract of the striped
// estimator: the same seed must give the bit-identical value on a nil pool
// and on pools of any worker count.
func TestJSDStripedWorkerInvariant(t *testing.T) {
	p, q := testJoints(t)
	for _, n := range []int{1, 31, 32, 33, 200, 1000} {
		want := JSDStriped(p, q, n, 12345, nil)
		for _, workers := range []int{1, 2, 4, 13} {
			pool := parallel.New(workers, nil)
			if got := JSDStriped(p, q, n, 12345, pool); got != want {
				t.Errorf("n=%d workers=%d: JSDStriped = %v, serial = %v", n, workers, got, want)
			}
		}
	}
}

func TestJSDStripedTracksSerialJSD(t *testing.T) {
	p, q := testJoints(t)
	striped := JSDStriped(p, q, 4000, 99, nil)
	serial := JSD(p, q, 4000, rand.New(rand.NewSource(99)))
	if striped < 0 || striped > math.Log(2)+1e-9 {
		t.Fatalf("JSDStriped = %v outside [0, ln 2]", striped)
	}
	// Different sample streams, same estimand: they should agree loosely.
	if math.Abs(striped-serial) > 0.1 {
		t.Errorf("striped %v vs serial %v differ beyond Monte-Carlo noise", striped, serial)
	}
	// log-sum-exp of two identical densities rounds, so JSD(p, p) is only
	// zero to machine precision, not exactly.
	same := JSDStriped(p, p, 2000, 5, nil)
	if same < 0 || same > 1e-12 {
		t.Errorf("JSD(p, p) = %v, want ~0", same)
	}
}

// refJSDStriped is the striped estimator written out directly: a fresh
// generator per stripe, the p half then the q half from it, each term
// log a/m summed in sample order.
func refJSDStriped(p, q Dist, n int, seed int64) float64 {
	half := func(a, b Dist, count int, r *rand.Rand) float64 {
		sum := 0.0
		for i := 0; i < count; i++ {
			x, _ := a.Sample(r)
			la, lb := a.LogPDF(x), b.LogPDF(x)
			hi := math.Max(la, lb)
			sum += la - (hi + math.Log(math.Exp(la-hi)+math.Exp(lb-hi)) - math.Ln2)
		}
		return sum
	}
	stripes := (n + jsdStripe - 1) / jsdStripe
	seeds := parallel.SplitSeeds(seed, stripes)
	var sp, sq float64
	for s := 0; s < stripes; s++ {
		count := min(jsdStripe, n-s*jsdStripe)
		r := rand.New(rand.NewSource(seeds[s]))
		sp += half(p, q, count, r)
		sq += half(q, p, count, r)
	}
	return max(0, 0.5*(sp/float64(n))+0.5*(sq/float64(n)))
}

// TestJSDStripedMatchesReference holds the shared stripe kernel (recycled
// generators, multi-p q half) bit-identical to the direct estimator.
func TestJSDStripedMatchesReference(t *testing.T) {
	p, q := testJoints(t)
	for _, n := range []int{1, 31, 32, 33, 200} {
		if got, want := JSDStriped(p, q, n, 4242, parallel.New(2, nil)), refJSDStriped(p, q, n, 4242); got != want {
			t.Errorf("n=%d: JSDStriped = %v, reference = %v", n, got, want)
		}
	}
}

// checkJSDPair holds JSDStripedPair(p1, p2, q) bit-identical to two
// JSDStriped calls on every pool shape.
func checkJSDPair(t *testing.T, p1, p2 *Joint, q Dist) {
	t.Helper()
	for _, n := range []int{1, 31, 33, 200} {
		want1 := JSDStriped(p1, q, n, 777, nil)
		want2 := JSDStriped(p2, q, n, 777, nil)
		for _, pool := range []*parallel.Pool{nil, parallel.New(1, nil), parallel.New(4, nil)} {
			got1, got2 := JSDStripedPair(p1, p2, q, n, 777, pool)
			if got1 != want1 || got2 != want2 {
				t.Errorf("n=%d workers=%d: pair = (%v, %v), separate calls = (%v, %v)", n, pool.Workers(), got1, got2, want1, want2)
			}
		}
	}
}

// TestJSDStripedPairMatchesSeparateCalls covers the shared-sample pair on
// GMM joints, including a p2 with a different component count than p1.
func TestJSDStripedPairMatchesSeparateCalls(t *testing.T) {
	p, q := testJoints(t)
	r := rand.New(rand.NewSource(21))
	one, err := Fit(context.Background(), twoClusterData(r, 120), 1, FitOptions{Rand: r})
	if err != nil {
		t.Fatal(err)
	}
	single, err := NewJoint(one, q.N, 0.55)
	if err != nil {
		t.Fatal(err)
	}
	checkJSDPair(t, p, q, single)
	checkJSDPair(t, p, single, q)
}

// TestFitPoolInvariant pins EM's contract that the E-step pool is purely an
// execution parameter: fits at any worker count are bit-identical.
func TestFitPoolInvariant(t *testing.T) {
	xs := twoClusterData(rand.New(rand.NewSource(11)), 250)
	serial, err := Fit(context.Background(), xs, 2, FitOptions{Rand: rand.New(rand.NewSource(4))})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		got, err := Fit(context.Background(), xs, 2, FitOptions{Rand: rand.New(rand.NewSource(4)), Pool: parallel.New(workers, nil)})
		if err != nil {
			t.Fatal(err)
		}
		for c := range serial.Comps {
			if serial.Comps[c].Weight != got.Comps[c].Weight {
				t.Errorf("workers=%d comp %d: weight %v != %v", workers, c, got.Comps[c].Weight, serial.Comps[c].Weight)
			}
			for d := range serial.Comps[c].Mean {
				if serial.Comps[c].Mean[d] != got.Comps[c].Mean[d] {
					t.Errorf("workers=%d comp %d dim %d: mean %v != %v", workers, c, d, got.Comps[c].Mean[d], serial.Comps[c].Mean[d])
				}
			}
		}
	}
}

// TestRespLogPDFMatchesSeparateCalls pins the fused E-step kernel to the
// two calls it replaces, bit for bit.
func TestRespLogPDFMatchesSeparateCalls(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	xs := twoClusterData(r, 100)
	m, err := Fit(context.Background(), xs, 2, FitOptions{Rand: r})
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, len(m.Comps))
	for _, x := range xs {
		ll := m.RespLogPDF(x, dst)
		if want := m.LogPDF(x); ll != want {
			t.Fatalf("RespLogPDF log-density %v != LogPDF %v", ll, want)
		}
		want := m.Responsibilities(x)
		for k := range dst {
			if dst[k] != want[k] {
				t.Fatalf("responsibility[%d] = %v, want %v", k, dst[k], want[k])
			}
		}
	}
}
