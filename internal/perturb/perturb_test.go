package perturb

import (
	"math/rand"
	"strings"
	"testing"
	"unicode"

	"serd/internal/simfn"
)

func TestTypoChangesOneLetter(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	s := "hello world"
	diffs := 0
	for i := 0; i < 50; i++ {
		out := Typo(s, r)
		if len(out) != len(s) {
			t.Fatalf("Typo changed length: %q", out)
		}
		d := 0
		for j := range s {
			if s[j] != out[j] {
				d++
			}
		}
		if d > 1 {
			t.Fatalf("Typo changed %d characters", d)
		}
		diffs += d
	}
	if diffs == 0 {
		t.Error("Typo never changed anything across 50 tries")
	}
}

func TestTypoEmptyAndNonLetter(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	if Typo("", r) != "" {
		t.Error("Typo on empty string")
	}
	if Typo("1234 !!", r) != "1234 !!" {
		t.Error("Typo should leave non-letter strings alone")
	}
}

func TestDeleteChar(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	out := DeleteChar("abc", r)
	if len(out) != 2 {
		t.Errorf("DeleteChar(%q) = %q", "abc", out)
	}
	if DeleteChar("", r) != "" {
		t.Error("DeleteChar on empty string")
	}
}

func TestDuplicateChar(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	out := DuplicateChar("ab", r)
	if len(out) != 3 {
		t.Errorf("DuplicateChar(%q) = %q", "ab", out)
	}
}

func TestDropToken(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	out := DropToken("one two three", r)
	if len(strings.Fields(out)) != 2 {
		t.Errorf("DropToken = %q", out)
	}
	if DropToken("single", r) != "single" {
		t.Error("DropToken must not drop the only token")
	}
}

func TestSwapTokens(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	out := SwapTokens("a b", r)
	if out != "b a" {
		t.Errorf("SwapTokens = %q", out)
	}
	if SwapTokens("solo", r) != "solo" {
		t.Error("SwapTokens on single token")
	}
}

func TestCaseOps(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	if LowerCase("AbC dEf", r) != "abc def" {
		t.Error("LowerCase")
	}
	if TitleCase("hello world", r) != "Hello World" {
		t.Error("TitleCase")
	}
}

func TestAbbreviateFirstNames(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	got := AbbreviateFirstNames("Donald Kossmann, Alfons Kemper", r)
	if got != "D. Kossmann, A. Kemper" {
		t.Errorf("AbbreviateFirstNames = %q", got)
	}
	// Middle names abbreviate too.
	got = AbbreviateFirstNames("Christian S. Jensen", r)
	if got != "C. S. Jensen" {
		t.Errorf("AbbreviateFirstNames = %q", got)
	}
	if AbbreviateFirstNames("Cher", r) != "Cher" {
		t.Error("single-token names must survive")
	}
}

func TestReorderNamesPreservesSet(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	in := "Alice A, Bob B, Carol C"
	out := ReorderNames(in, r)
	want := map[string]bool{"Alice A": true, "Bob B": true, "Carol C": true}
	for _, n := range strings.Split(out, ", ") {
		if !want[n] {
			t.Fatalf("unexpected name %q in %q", n, out)
		}
	}
}

func TestApplyComposes(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	s := "The Quick Brown Fox Jumps Over The Lazy Dog"
	out := Apply(s, Heavy(), 5, r)
	if out == "" {
		t.Error("Apply produced empty string")
	}
}

func TestTowardSimilarityHitsBuckets(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	f := simfn.QGramJaccard{Q: 3}
	s := "Adaptable Query Optimization and Evaluation in Temporal Middleware"
	for _, target := range []float64{0.9, 0.7, 0.5, 0.3} {
		got, sim := TowardSimilarity(s, target, 0.05, f.Sim, 400, r)
		if got == "" {
			t.Fatalf("empty output for target %v", target)
		}
		if d := sim - target; d > 0.15 || d < -0.15 {
			t.Errorf("target %v: achieved %v (value %q)", target, sim, got)
		}
	}
}

func TestTowardSimilarityIdentityTarget(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	f := simfn.QGramJaccard{Q: 3}
	got, sim := TowardSimilarity("hello world", 1.0, 0.01, f.Sim, 10, r)
	if got != "hello world" || sim != 1 {
		t.Errorf("target 1.0 should return the input unchanged, got %q (%v)", got, sim)
	}
}

// The rune-slice forms of the letter ops: the definitions the
// byte-splicing ops must reproduce.

func letterIndexes(runes []rune) []int {
	var idxs []int
	for i, c := range runes {
		if unicode.IsLetter(c) {
			idxs = append(idxs, i)
		}
	}
	return idxs
}

func typoRunes(s string, r *rand.Rand) string {
	runes := []rune(s)
	idxs := letterIndexes(runes)
	if len(idxs) == 0 {
		return s
	}
	i := idxs[r.Intn(len(idxs))]
	runes[i] = rune('a' + r.Intn(26))
	return string(runes)
}

func deleteCharRunes(s string, r *rand.Rand) string {
	runes := []rune(s)
	idxs := letterIndexes(runes)
	if len(idxs) == 0 {
		return s
	}
	i := idxs[r.Intn(len(idxs))]
	return string(runes[:i]) + string(runes[i+1:])
}

func duplicateCharRunes(s string, r *rand.Rand) string {
	runes := []rune(s)
	idxs := letterIndexes(runes)
	if len(idxs) == 0 {
		return s
	}
	i := idxs[r.Intn(len(idxs))]
	return string(runes[:i+1]) + string(runes[i:])
}

// TestLetterOpsMatchRuneForm holds the byte-splicing letter ops equal to
// their rune-slice forms — output and RNG position — on random strings
// with multi-byte letters, digits, punctuation and invalid UTF-8.
func TestLetterOpsMatchRuneForm(t *testing.T) {
	ops := []struct {
		name      string
		op, runes Op
	}{
		{"Typo", Typo, typoRunes},
		{"DeleteChar", DeleteChar, deleteCharRunes},
		{"DuplicateChar", DuplicateChar, duplicateCharRunes},
	}
	alphabet := []string{"a", "Z", "é", "Ü", "İ", "日", "ß", "7", "0", " ", ",", "-", "\xff", "\xc3", "�", "😀"}
	gen := rand.New(rand.NewSource(17))
	for trial := 0; trial < 2000; trial++ {
		var sb strings.Builder
		for n := gen.Intn(12); n > 0; n-- {
			sb.WriteString(alphabet[gen.Intn(len(alphabet))])
		}
		s := sb.String()
		for _, o := range ops {
			seed := gen.Int63()
			r1, r2 := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			if got, want := o.op(s, r1), o.runes(s, r2); got != want {
				t.Fatalf("%s(%q) = %q, rune form %q", o.name, s, got, want)
			}
			if r1.Int63() != r2.Int63() {
				t.Fatalf("%s(%q) left the RNG at a different position than the rune form", o.name, s)
			}
		}
	}
}

// TestLetterOpsAllocs pins Typo and DeleteChar at one allocation — the
// result string — on valid UTF-8. The value starts and ends with a
// non-letter, so no splice leaves one side empty (which would return a
// substring without allocating).
func TestLetterOpsAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	s := "(Über Snapshot Isolation in Mobile Devices)"
	for name, op := range map[string]Op{"Typo": Typo, "DeleteChar": DeleteChar} {
		if n := testing.AllocsPerRun(100, func() { op(s, r) }); n != 1 {
			t.Errorf("%s: %v allocs per call, want 1", name, n)
		}
	}
}

// BenchmarkTowardSimilarity measures one §VI edit walk with the source
// bound once, as the rule synthesizer runs it.
func BenchmarkTowardSimilarity(b *testing.B) {
	s := "Adaptable Query Optimization and Evaluation in Temporal Middleware"
	simS := simfn.Bind(simfn.QGramJaccard{Q: 3, Fold: true}, s)
	sim := func(_, c string) float64 { return simS(c) }
	r := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		TowardSimilarity(s, 0.5, 0.02, sim, 200, r)
	}
}
