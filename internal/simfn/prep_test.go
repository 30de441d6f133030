package simfn

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// prepCases stresses the sorted-set representations: unicode (multi-byte
// runes), strings shorter than q, repeats, empty strings, whitespace, and
// invalid UTF-8 next to a literal U+FFFD (which ranging over a string
// decodes identically, but whose bytes differ).
var prepCases = []string{
	"", " ", "a", "ab", "abc", "abcabc", "hello world", "Hello World",
	"résumé café", "日本語テキスト", "a b\tc\nd", "   spaced   out   ",
	"aaaaaaa", "the quick brown fox", "ñ", "née naïve",
	"\xff", "a\xffb", "\ufffd", "a\ufffdb", "\xff\xfe", "\xe2\x82", "日", "日本",
}

// TestPreprocessorBitEquality is the Preprocessor contract:
// SimPrepped(Prep(a), Prep(b)) must equal Sim(a, b) bit for bit.
func TestPreprocessorBitEquality(t *testing.T) {
	fns := []Func{
		QGramJaccard{},
		QGramJaccard{Q: 2},
		QGramJaccard{Q: 3, Fold: true},
		QGramJaccard{Q: 4},
		TokenJaccard{},
	}
	for _, f := range fns {
		pp, ok := f.(Preprocessor)
		if !ok {
			t.Fatalf("%s does not implement Preprocessor", f.Name())
		}
		for _, a := range prepCases {
			pa := pp.Prep(a)
			for _, b := range prepCases {
				want := f.Sim(a, b)
				if got := pp.SimPrepped(pa, pp.Prep(b)); got != want {
					t.Errorf("%s: SimPrepped(%q, %q) = %v, Sim = %v", f.Name(), a, b, got, want)
				}
			}
		}
	}
}

// TestBindMatchesSim holds the bound kernel (q <= 3) and the Prep
// fallback (q = 4) equal to Sim for every q and both fold settings,
// including values longer than the kernel's stack table.
func TestBindMatchesSim(t *testing.T) {
	long := strings.Repeat("Über dÄta\xff İnvariants ", 12)
	cases := append(append([]string{}, prepCases...), long, long[:129], "İİİ", "ÜBER über")
	for q := 1; q <= 4; q++ {
		for _, fold := range []bool{false, true} {
			f := QGramJaccard{Q: q, Fold: fold}
			for _, a := range cases {
				bound := Bind(f, a)
				for _, b := range cases {
					if got, want := bound(b), f.Sim(a, b); got != want {
						t.Errorf("q=%d fold=%v Bind(%q)(%q) = %v, Sim = %v", q, fold, a, b, got, want)
					}
				}
			}
		}
	}
	// Non-preprocessor funcs take the closure fallback.
	ex := Exact{}
	bound := Bind(ex, "x")
	if bound("x") != 1 || bound("y") != 0 {
		t.Error("Bind fallback broke Exact semantics")
	}
}

// TestSortedGramsMatchQGramsMap cross-checks the hot-path sorted
// representation against the exported QGrams map on random strings.
func TestSortedGramsMatchQGramsMap(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	alphabet := []rune("abcdé日 ")
	for trial := 0; trial < 200; trial++ {
		n := r.Intn(12)
		rs := make([]rune, n)
		for i := range rs {
			rs[i] = alphabet[r.Intn(len(alphabet))]
		}
		s := string(rs)
		for q := 2; q <= 4; q++ {
			want := QGrams(s, q)
			got := sortedQGrams(s, q)
			if len(got) != len(want) {
				t.Fatalf("q=%d %q: %d sorted grams vs %d map grams (%v vs %v)", q, s, len(got), len(want), got, want)
			}
			for _, g := range got {
				if _, ok := want[g]; !ok {
					t.Fatalf("q=%d %q: sorted gram %q missing from map", q, s, g)
				}
			}
		}
	}
}

// stringJaccard is the reference q-gram Jaccard over sorted substring
// grams — the representation packedQGrams must reproduce bit for bit.
func stringJaccard(f QGramJaccard, a, b string) float64 {
	return jaccardSorted(sortedQGrams(f.fold(a), f.q()), sortedQGrams(f.fold(b), f.q()))
}

// TestPackedGramsMatchStrings checks the packed representation against the
// substring one: the same set size for every value and the same Jaccard
// for every pair, at every packed q.
func TestPackedGramsMatchStrings(t *testing.T) {
	for q := 1; q <= maxPackedQ; q++ {
		for _, fold := range []bool{false, true} {
			f := QGramJaccard{Q: q, Fold: fold}
			for _, a := range prepCases {
				if got, want := len(packedQGrams(a, q, fold)), len(sortedQGrams(f.fold(a), q)); got != want {
					t.Errorf("q=%d fold=%v %q: %d packed grams, %d string grams", q, fold, a, got, want)
				}
				for _, b := range prepCases {
					if got, want := f.Sim(a, b), stringJaccard(f, a, b); got != want {
						t.Errorf("q=%d fold=%v Sim(%q, %q) = %v, string grams give %v", q, fold, a, b, got, want)
					}
				}
			}
		}
	}
}

// FuzzQGramPackedMatchesStrings holds the packed q-gram Jaccard equal to
// the substring form on arbitrary byte strings, valid UTF-8 or not.
func FuzzQGramPackedMatchesStrings(f *testing.F) {
	for i, a := range prepCases {
		f.Add(a, prepCases[(i+1)%len(prepCases)], uint8(i))
	}
	f.Add("a\xffb", "a\ufffdb", uint8(1))
	f.Fuzz(func(t *testing.T, a, b string, mode uint8) {
		fn := QGramJaccard{Q: 1 + int(mode)%maxPackedQ, Fold: mode&4 != 0}
		if got, want := fn.Sim(a, b), stringJaccard(fn, a, b); got != want {
			t.Fatalf("%s fold=%v Sim(%q, %q) = %v, string grams give %v", fn.Name(), fn.Fold, a, b, got, want)
		}
		if got, want := fn.SimPrepped(fn.Prep(a), fn.Prep(b)), fn.Sim(a, b); got != want {
			t.Fatalf("%s fold=%v SimPrepped(%q, %q) = %v, Sim = %v", fn.Name(), fn.Fold, a, b, got, want)
		}
	})
}

// TestFoldMatchesToLower pins runeCode's folding to strings.ToLower: the
// packed grams of a value under Fold equal the unfolded packed grams of
// its strings.ToLower.
func TestFoldMatchesToLower(t *testing.T) {
	for _, s := range append(prepCases, "İ", "ÄRGER\xc3 X", "KK", "ΣΑΣ", "\xf0\x9f") {
		for q := 1; q <= maxPackedQ; q++ {
			got, want := packedQGrams(s, q, true), packedQGrams(strings.ToLower(s), q, false)
			if !slices.Equal(got, want) {
				t.Errorf("q=%d %q: folded grams %v, grams of ToLower %v", q, s, got, want)
			}
		}
	}
}

// TestBindQGramAllocs pins the bound kernel allocation-free on values up
// to the stack table's size.
func TestBindQGramAllocs(t *testing.T) {
	bound := Bind(QGramJaccard{Q: 3, Fold: true}, "Versioned Range Scanning for Multi-Tenant Platforms")
	b := strings.Repeat("Über Snapshot İsolation ", 6)[:bindStackBytes]
	if n := testing.AllocsPerRun(100, func() { bound(b) }); n != 0 {
		t.Errorf("bound q-gram Jaccard on %d bytes: %v allocs per call, want 0", len(b), n)
	}
}

// FuzzBindQGramMatchesSim holds Bind(f, a)(b) equal to f.Sim(a, b) on
// arbitrary bytes for q in 1..4 with and without folding.
func FuzzBindQGramMatchesSim(f *testing.F) {
	for i, a := range prepCases {
		f.Add(a, prepCases[(i+3)%len(prepCases)], uint8(i))
	}
	f.Add("ÄRGER\xc3 İ", "ärger� i", uint8(6))
	f.Fuzz(func(t *testing.T, a, b string, mode uint8) {
		fn := QGramJaccard{Q: 1 + int(mode)%4, Fold: mode&4 != 0}
		if got, want := Bind(fn, a)(b), fn.Sim(a, b); got != want {
			t.Fatalf("%s fold=%v Bind(%q)(%q) = %v, Sim = %v", fn.Name(), fn.Fold, a, b, got, want)
		}
	})
}

// BenchmarkBindQGram measures one bound 3-gram Jaccard call — the string
// walk's per-candidate cost — on a title-length value.
func BenchmarkBindQGram(b *testing.B) {
	bound := Bind(QGramJaccard{Q: 3, Fold: true}, "Versioned Range Scanning for Multi-Tenant Platforms")
	cand := "Versioned Rnage Scaning for Multi Tenant Platforms"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bound(cand)
	}
}
