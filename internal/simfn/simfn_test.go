package simfn

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestQGramJaccardIdentity(t *testing.T) {
	f := QGramJaccard{Q: 3}
	for _, s := range []string{"", "a", "ab", "abc", "SIGMOD Conference", "日本語テキスト"} {
		if got := f.Sim(s, s); got != 1 {
			t.Errorf("Sim(%q,%q) = %v, want 1", s, s, got)
		}
	}
}

func TestQGramJaccardDisjoint(t *testing.T) {
	f := QGramJaccard{Q: 3}
	if got := f.Sim("aaaa", "bbbb"); got != 0 {
		t.Errorf("disjoint strings: got %v, want 0", got)
	}
	if got := f.Sim("abc", ""); got != 0 {
		t.Errorf("vs empty: got %v, want 0", got)
	}
}

func TestQGramJaccardKnownValue(t *testing.T) {
	// "abcd" -> {abc, bcd}; "abce" -> {abc, bce}; intersection 1, union 3.
	f := QGramJaccard{Q: 3}
	if got, want := f.Sim("abcd", "abce"), 1.0/3.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestQGramJaccardDefaultQ(t *testing.T) {
	var f QGramJaccard // zero value must behave as Q=3
	if got, want := f.Sim("abcd", "abce"), 1.0/3.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("zero-value Q: got %v, want %v", got, want)
	}
	if f.Name() != "3gram-jaccard" {
		t.Errorf("Name = %q", f.Name())
	}
}

func TestQGramJaccardSymmetricAndBounded(t *testing.T) {
	f := QGramJaccard{Q: 3}
	err := quick.Check(func(a, b string) bool {
		s1, s2 := f.Sim(a, b), f.Sim(b, a)
		return s1 == s2 && s1 >= 0 && s1 <= 1
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestTokenJaccard(t *testing.T) {
	f := TokenJaccard{}
	cases := []struct {
		a, b string
		want float64
	}{
		{"a b c", "a b c", 1},
		{"a b", "b a", 1},
		{"a b c d", "a b", 0.5},
		{"x", "y", 0},
		{"", "", 1},
		{"  spaced   out  ", "spaced out", 1},
	}
	for _, c := range cases {
		if got := f.Sim(c.a, c.b); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Sim(%q,%q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestEditDistance(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "", 3},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"abc", "abc", 0},
		{"日本語", "日本", 1},
	}
	for _, c := range cases {
		if got := EditDistance(c.a, c.b); got != c.want {
			t.Errorf("EditDistance(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestEditSimBounds(t *testing.T) {
	f := EditSim{}
	err := quick.Check(func(a, b string) bool {
		s := f.Sim(a, b)
		return s >= 0 && s <= 1 && s == f.Sim(b, a)
	}, nil)
	if err != nil {
		t.Error(err)
	}
	if f.Sim("abc", "abc") != 1 {
		t.Error("identical strings must have similarity 1")
	}
}

func TestEditDistanceTriangleInequality(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}
	err := quick.Check(func(a, b, c string) bool {
		if len(a) > 30 || len(b) > 30 || len(c) > 30 {
			a, b, c = trunc(a, 30), trunc(b, 30), trunc(c, 30)
		}
		return EditDistance(a, c) <= EditDistance(a, b)+EditDistance(b, c)
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

func trunc(s string, n int) string {
	r := []rune(s)
	if len(r) > n {
		return string(r[:n])
	}
	return s
}

func TestNumericSim(t *testing.T) {
	// Mirrors Example 2: year similarity with range 10.
	f := Numeric{Min: 1995, Max: 2005}
	if got := f.Sim("2001", "2001"); got != 1 {
		t.Errorf("equal years: got %v", got)
	}
	if got, want := f.Sim("2000", "1998"), 0.8; math.Abs(got-want) > 1e-12 {
		t.Errorf("got %v, want %v", got, want)
	}
	if got := f.Sim("1995", "2005"); got != 0 {
		t.Errorf("extremes: got %v, want 0", got)
	}
	if got := f.Sim("x", "x"); got != 1 {
		t.Errorf("unparsable equal: got %v, want 1", got)
	}
	if got := f.Sim("x", "2001"); got != 0 {
		t.Errorf("unparsable unequal: got %v, want 0", got)
	}
}

func TestNumericInvertAchievesTarget(t *testing.T) {
	f := Numeric{Min: 1990, Max: 2010}
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		// From the midpoint, targets in [0.5, 1] are reachable: the required
		// offset (1-target)*20 <= 10 fits inside the range. The output is
		// rendered at the input's precision (integers here), so the achieved
		// similarity may be off by up to half a unit over the span.
		target := 0.5 + r.Float64()/2
		v, sim := f.Invert("2000", target, r.Float64)
		if math.Abs(sim-target) > 0.5/20+1e-9 {
			t.Fatalf("Invert target=%v: got value %q with sim %v", target, v, sim)
		}
	}
}

func TestNumericInvertKeepsDecimalPrecision(t *testing.T) {
	f := Numeric{Min: 0, Max: 100}
	r := rand.New(rand.NewSource(5))
	v, _ := f.Invert("19.99", 0.8, r.Float64)
	if !strings.Contains(v, ".") || len(v)-strings.Index(v, ".")-1 != 2 {
		t.Errorf("expected two-decimal output, got %q", v)
	}
	v, _ = f.Invert("20", 0.8, r.Float64)
	if strings.Contains(v, ".") {
		t.Errorf("expected integer output, got %q", v)
	}
}

func TestNumericInvertUnreachableTargetClamps(t *testing.T) {
	// From the midpoint of [1990, 2010], a target below 0.5 needs an offset
	// larger than the half-range; Invert must clamp to a boundary, yielding
	// the closest achievable similarity (0.5).
	f := Numeric{Min: 1990, Max: 2010}
	r := rand.New(rand.NewSource(9))
	v, sim := f.Invert("2000", 0.1, r.Float64)
	if v != "1990" && v != "2010" {
		t.Fatalf("expected boundary value, got %q", v)
	}
	if math.Abs(sim-0.5) > 0.06 {
		t.Fatalf("sim = %v, want 0.5 (closest achievable)", sim)
	}
}

func TestNumericInvertClampsToRange(t *testing.T) {
	f := Numeric{Min: 0, Max: 10}
	r := rand.New(rand.NewSource(7))
	// From the boundary, one branch falls outside the range; the other must
	// be chosen.
	for i := 0; i < 50; i++ {
		v, sim := f.Invert("0", 0.5, r.Float64)
		x, err := strconv.ParseFloat(v, 64)
		if err != nil || x < 0 || x > 10 {
			t.Fatalf("Invert produced out-of-range value %q", v)
		}
		if math.Abs(sim-0.5) > 0.06 {
			t.Fatalf("sim = %v, want 0.5", sim)
		}
	}
}

func TestNumericInvertBothBranches(t *testing.T) {
	f := Numeric{Min: 1990, Max: 2010}
	seen := map[string]bool{}
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		v, _ := f.Invert("2000", 0.9, r.Float64)
		seen[v] = true
	}
	if !seen["1998"] || !seen["2002"] {
		t.Errorf("expected both ± roots (1998 and 2002), got %v", seen)
	}
}

func TestExact(t *testing.T) {
	f := Exact{}
	if f.Sim("a", "a") != 1 || f.Sim("a", "b") != 0 {
		t.Error("Exact misbehaves")
	}
}

func TestDateDelegatesToNumeric(t *testing.T) {
	d := Date{Min: 0, Max: 365}
	n := Numeric{Min: 0, Max: 365}
	if d.Sim("10", "100") != n.Sim("10", "100") {
		t.Error("Date.Sim must equal Numeric.Sim")
	}
	r := rand.New(rand.NewSource(1))
	_, sim := d.Invert("100", 0.75, r.Float64)
	if math.Abs(sim-0.75) > 0.01 {
		t.Errorf("Date.Invert sim = %v", sim)
	}
}

func TestQGrams(t *testing.T) {
	g := QGrams("abcd", 3)
	if len(g) != 2 {
		t.Fatalf("QGrams(abcd,3) size = %d, want 2", len(g))
	}
	for _, want := range []string{"abc", "bcd"} {
		if _, ok := g[want]; !ok {
			t.Errorf("missing gram %q", want)
		}
	}
	if got := QGrams("ab", 3); len(got) != 1 {
		t.Errorf("short string should yield one gram, got %d", len(got))
	}
	if got := QGrams("", 3); len(got) != 0 {
		t.Errorf("empty string should yield no grams, got %d", len(got))
	}
}

// editDistanceMatrix is a full-matrix Levenshtein reference, independent
// of the single-row program EditDistance and EditDistanceRunes share.
func editDistanceMatrix(a, b []rune) int {
	d := make([][]int, len(a)+1)
	for i := range d {
		d[i] = make([]int, len(b)+1)
		d[i][0] = i
	}
	for j := range d[0] {
		d[0][j] = j
	}
	for i := 1; i <= len(a); i++ {
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			d[i][j] = min(d[i-1][j-1]+cost, d[i-1][j]+1, d[i][j-1]+1)
		}
	}
	return d[len(a)][len(b)]
}

// TestEditDistanceRunesMatchesEditDistance checks the scratch-row form
// against EditDistance and a full-matrix reference on random strings with
// multi-byte runes and invalid UTF-8, with no scratch, too-short scratch,
// and oversized scratch holding stale values.
func TestEditDistanceRunesMatchesEditDistance(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	alphabet := []string{"a", "b", "c", "é", "日", " ", "\xff", "�", "İ"}
	gen := func() string {
		var sb strings.Builder
		for n := r.Intn(14); n > 0; n-- {
			sb.WriteString(alphabet[r.Intn(len(alphabet))])
		}
		return sb.String()
	}
	dirty := make([]int, 64)
	for trial := 0; trial < 500; trial++ {
		a, b := gen(), gen()
		ra, rb := []rune(a), []rune(b)
		want := editDistanceMatrix(ra, rb)
		if got := EditDistance(a, b); got != want {
			t.Fatalf("EditDistance(%q, %q) = %d, want %d", a, b, got, want)
		}
		for i := range dirty {
			dirty[i] = r.Intn(100) - 50
		}
		for _, scratch := range [][]int{nil, make([]int, 3), dirty} {
			if got := EditDistanceRunes(ra, rb, scratch); got != want {
				t.Fatalf("EditDistanceRunes(%q, %q, len %d) = %d, want %d", a, b, len(scratch), got, want)
			}
		}
	}
}

// TestNumericNonFinite: values that parse to NaN or ±Inf behave like
// unparsable ones in Sim (string equality, never NaN) and in Invert (the
// value comes back unchanged with similarity 1).
func TestNumericNonFinite(t *testing.T) {
	f := Numeric{Min: 0, Max: 10}
	for _, c := range []struct {
		a, b string
		want float64
	}{
		{"NaN", "3", 0},
		{"3", "NaN", 0},
		{"NaN", "NaN", 1},
		{"Inf", "3", 0},
		{"-Inf", "Inf", 0},
		{"+Inf", "+Inf", 1},
		{"Inf", "+Inf", 0}, // unequal strings, even though both parse to +Inf
		{"3", "4", 0.9},
	} {
		if got := f.Sim(c.a, c.b); got != c.want {
			t.Errorf("Sim(%q, %q) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := (Date{Min: 0, Max: 10}).Sim(c.a, c.b); got != c.want {
			t.Errorf("Date.Sim(%q, %q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
	for _, a := range []string{"NaN", "Inf", "-Inf", "infinity"} {
		v, sim := f.Invert(a, 0.5, func() float64 { return 0.3 })
		if v != a || sim != 1 {
			t.Errorf("Invert(%q) = %q, %v; want the value back with similarity 1", a, v, sim)
		}
	}
}
