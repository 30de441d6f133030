package textsynth

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"

	"serd/internal/datagen"
	"serd/internal/perturb"
	"serd/internal/simfn"
)

func corpusFixture(t *testing.T) []string {
	t.Helper()
	gen, err := datagen.Scholar(datagen.Config{Seed: 1, SizeA: 20, SizeB: 20, Matches: 5, BackgroundPerColumn: 120})
	if err != nil {
		t.Fatal(err)
	}
	return gen.Background["title"]
}

func TestNewRuleSynthesizerValidation(t *testing.T) {
	if _, err := NewRuleSynthesizer(nil, []string{"a"}); err == nil {
		t.Error("nil sim accepted")
	}
	if _, err := NewRuleSynthesizer(simfn.QGramJaccard{}, nil); err == nil {
		t.Error("empty corpus accepted")
	}
}

func TestRuleSynthesizerHitsTargets(t *testing.T) {
	corpus := corpusFixture(t)
	rs, err := NewRuleSynthesizer(simfn.QGramJaccard{Q: 3, Fold: true}, corpus)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(2))
	s := "Adaptive Query Optimization for Relational Databases"
	for _, target := range []float64{0.95, 0.7, 0.5, 0.3, 0.05} {
		got, sim := rs.Synthesize(s, target, r)
		if got == "" {
			t.Fatalf("empty synthesis for target %v", target)
		}
		if math.Abs(sim-target) > 0.2 {
			t.Errorf("target %v: achieved %v with %q", target, sim, got)
		}
	}
}

func TestRuleSynthesizerMatchesTableIExamples(t *testing.T) {
	// Table I's contract: input sim and achieved sim' differ by only a few
	// hundredths for representative targets.
	corpus := corpusFixture(t)
	rs, err := NewRuleSynthesizer(simfn.QGramJaccard{Q: 3, Fold: true}, corpus)
	if err != nil {
		t.Fatal(err)
	}
	rs.Candidates = 20
	r := rand.New(rand.NewSource(3))
	s := "Forest Family Restaurant"
	_, sim := rs.Synthesize(s, 0.73, r)
	if math.Abs(sim-0.73) > 0.12 {
		t.Errorf("Table I scenario: target 0.73, achieved %v", sim)
	}
}

func TestBucketing(t *testing.T) {
	if Bucket(0, 10) != 0 || Bucket(0.999, 10) != 9 || Bucket(1, 10) != 9 {
		t.Error("bucket boundaries wrong")
	}
	if Bucket(0.55, 10) != 5 {
		t.Errorf("Bucket(0.55) = %d", Bucket(0.55, 10))
	}
	if Bucket(-0.1, 10) != 0 {
		t.Error("negative sim must clamp to bucket 0")
	}
	if c := BucketCenter(5, 10); math.Abs(c-0.55) > 1e-12 {
		t.Errorf("BucketCenter = %v", c)
	}
}

func TestBuildPairsBucketsAreConsistent(t *testing.T) {
	corpus := corpusFixture(t)
	f := simfn.QGramJaccard{Q: 3, Fold: true}
	r := rand.New(rand.NewSource(4))
	sets := BuildPairs(corpus, f, 10, 20, r)
	if len(sets) != 10 {
		t.Fatalf("got %d buckets", len(sets))
	}
	nonEmpty := 0
	for bk, pairs := range sets {
		if len(pairs) > 0 {
			nonEmpty++
		}
		for _, p := range pairs {
			if got := f.Sim(p.S, p.T); math.Abs(got-p.Sim) > 1e-12 {
				t.Fatalf("recorded sim %v != recomputed %v", p.Sim, got)
			}
			if Bucket(p.Sim, 10) != bk {
				t.Fatalf("pair with sim %v filed in bucket %d", p.Sim, bk)
			}
		}
	}
	if nonEmpty < 6 {
		t.Errorf("only %d/10 buckets populated", nonEmpty)
	}
}

func TestBuildPairsSmallCorpus(t *testing.T) {
	f := simfn.QGramJaccard{Q: 3}
	r := rand.New(rand.NewSource(5))
	sets := BuildPairs([]string{"only"}, f, 10, 5, r)
	for _, s := range sets {
		if len(s) != 0 {
			t.Error("single-string corpus cannot produce pairs")
		}
	}
}

func TestTrainTransformerValidation(t *testing.T) {
	if _, err := TrainTransformer(context.Background(), nil, simfn.QGramJaccard{}, TransformerOptions{}); err == nil {
		t.Error("empty corpus accepted")
	}
	if _, err := TrainTransformer(context.Background(), []string{"a", "b"}, nil, TransformerOptions{}); err == nil {
		t.Error("nil sim accepted")
	}
}

func TestRepairTokensSnapsToVocabulary(t *testing.T) {
	rs, err := NewRuleSynthesizer(simfn.QGramJaccard{Q: 3, Fold: true},
		[]string{"forest family restaurant", "golden dragon kitchen"})
	if err != nil {
		t.Fatal(err)
	}
	got := rs.repairTokens("Forrest Famly restauran")
	if got != "Forest Family restaurant" {
		t.Errorf("repairTokens = %q", got)
	}
	// In-vocabulary and short tokens are untouched; unsnappable ones stay.
	if got := rs.repairTokens("golden zz qqqqqqqqqqqq"); got != "golden zz qqqqqqqqqqqq" {
		t.Errorf("repairTokens should leave unsnappable tokens: %q", got)
	}
	rs.DisableRepair = true
	if got := rs.repairTokens("Forrest"); got != "Forrest" {
		t.Errorf("DisableRepair ignored: %q", got)
	}
}

func TestSynthesizedHighTargetStaysInVocabulary(t *testing.T) {
	corpus := corpusFixture(t)
	rs, err := NewRuleSynthesizer(simfn.QGramJaccard{Q: 3, Fold: true}, corpus)
	if err != nil {
		t.Fatal(err)
	}
	vocab := map[string]bool{}
	for _, s := range corpus {
		for _, tok := range strings.Fields(strings.ToLower(s)) {
			vocab[tok] = true
		}
	}
	r := rand.New(rand.NewSource(31))
	src := corpus[1]
	oov := 0
	total := 0
	for i := 0; i < 20; i++ {
		out, _ := rs.Synthesize(src, 0.85, r)
		for _, tok := range strings.Fields(strings.ToLower(out)) {
			total++
			if !vocab[tok] && len(tok) >= 3 {
				oov++
			}
		}
	}
	if total == 0 {
		t.Fatal("no tokens synthesized")
	}
	if frac := float64(oov) / float64(total); frac > 0.25 {
		t.Errorf("%.0f%% of synthesized tokens are out of vocabulary", 100*frac)
	}
}

// repairTokensRef is repairTokens written with simfn.EditDistance on
// every vocabulary word — the form the stack-rune search must reproduce.
func repairTokensRef(rs *RuleSynthesizer, s string) string {
	toks := strings.Fields(s)
	changed := false
	for i, tok := range toks {
		lower := strings.ToLower(tok)
		if rs.vocab[lower] || len(lower) < 3 {
			continue
		}
		best, bestD := "", 3
		for _, v := range rs.vocabList {
			if abs := len(v) - len(lower); abs > 2 || abs < -2 {
				continue
			}
			if d := simfn.EditDistance(lower, v); d < bestD {
				best, bestD = v, d
				if d == 1 {
					break
				}
			}
		}
		if best != "" {
			toks[i] = matchCase(tok, best)
			changed = true
		}
	}
	if !changed {
		return s
	}
	return strings.Join(toks, " ")
}

// TestRepairTokensMatchesReference checks repairTokens against
// repairTokensRef on perturbed corpus text with non-ASCII capitals,
// invalid UTF-8 and tokens longer than the stack buffers.
func TestRepairTokensMatchesReference(t *testing.T) {
	corpus := corpusFixture(t)
	long := strings.Repeat("Über", 16) + "x"
	corpus = append(corpus, "Über dİe \xffdata fusion", long, long+"yz", strings.Repeat("é", 70))
	rs, err := NewRuleSynthesizer(simfn.QGramJaccard{Q: 3, Fold: true}, corpus)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(4))
	extra := []string{"Übr", "dİee", "\xffdat", "dta\xfe", long + "q", strings.Repeat("é", 69) + "e", "ÄRGER\xc3"}
	for trial := 0; trial < 400; trial++ {
		s := corpus[r.Intn(len(corpus))]
		for k := r.Intn(3); k > 0; k-- {
			s = perturb.Typo(perturb.DeleteChar(s, r), r)
		}
		if r.Intn(3) == 0 {
			s += " " + extra[r.Intn(len(extra))]
		}
		if got, want := rs.repairTokens(s), repairTokensRef(rs, s); got != want {
			t.Fatalf("repairTokens(%q) = %q, reference %q", s, got, want)
		}
	}
}

// BenchmarkRepairTokens measures the vocabulary snap of one edit-walk
// candidate with two misspelled tokens against a DBLP-ACM title corpus.
func BenchmarkRepairTokens(b *testing.B) {
	gen, err := datagen.Scholar(datagen.Config{Seed: 1, SizeA: 20, SizeB: 20, Matches: 5, BackgroundPerColumn: 120})
	if err != nil {
		b.Fatal(err)
	}
	rs, err := NewRuleSynthesizer(simfn.QGramJaccard{Q: 3, Fold: true}, gen.Background["title"])
	if err != nil {
		b.Fatal(err)
	}
	s := "Adaptve Query Optimizaton for Relational Databases"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rs.repairTokens(s)
	}
}
