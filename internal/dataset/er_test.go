package dataset

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// randomER builds an ER over paperSchema whose values repeat across
// entities and mix multi-byte capitals, invalid UTF-8 and unparsable
// numbers, so the S1 vector paths see cache hits and every folding case.
func randomER(t *testing.T, seed int64, nA, nB, nMatch int) *ER {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	words := []string{"Query", "über", "İndex", "Data\xff", "stream", "JOIN", "日本", "graph", "�", "Ärger\xc3"}
	text := func() string {
		toks := make([]string, 1+r.Intn(6))
		for i := range toks {
			toks[i] = words[r.Intn(len(words))]
		}
		return strings.Join(toks, " ")
	}
	venues := []string{"VLDB", "SIGMOD Conference", "Über Daten", "ICDE\xfe"}
	years := []string{"1995", "2001", "2005", "oops", ""}
	s := paperSchema(t)
	fill := func(rel *Relation, n int, prefix string) {
		for i := 0; i < n; i++ {
			year := years[r.Intn(len(years))]
			if r.Intn(2) == 0 {
				year = strconv.Itoa(1995 + r.Intn(11))
			}
			vals := []string{text(), text(), venues[r.Intn(len(venues))], year}
			if err := rel.Append(&Entity{ID: fmt.Sprintf("%s%d", prefix, i), Values: vals}); err != nil {
				t.Fatal(err)
			}
		}
	}
	a, b := NewRelation("A", s), NewRelation("B", s)
	fill(a, nA, "a")
	fill(b, nB, "b")
	matches := make([]Pair, nMatch)
	for i := range matches {
		matches[i] = Pair{A: i % nA, B: (i * 7) % nB}
	}
	er, err := NewER(a, b, matches)
	if err != nil {
		t.Fatal(err)
	}
	return er
}

// referenceVectors is the Schema.SimVector form the S1 vector sets must
// reproduce bit for bit.
func referenceVectors(e *ER, pairs []Pair) [][]float64 {
	out := make([][]float64, len(pairs))
	for i, p := range pairs {
		out[i] = e.Schema().SimVector(e.A.Entities[p.A], e.B.Entities[p.B])
	}
	return out
}

func assertVectorsEqual(t *testing.T, what string, got, want [][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d vectors, reference %d", what, len(got), len(want))
	}
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("%s: vector %d col %d = %v, reference %v", what, i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestLearningVectorsMatchSimVector holds MatchingVectors,
// NonMatchingVectors (sampled and exhaustive) and HardestNonMatches equal
// to a Schema.SimVector reference, order included.
func TestLearningVectorsMatchSimVector(t *testing.T) {
	er := randomER(t, 3, 30, 25, 12)
	assertVectorsEqual(t, "MatchingVectors", er.MatchingVectors(), referenceVectors(er, er.Matches))
	for _, maxN := range []int{0, 40} {
		got := er.NonMatchingVectors(maxN, rand.New(rand.NewSource(8)))
		want := referenceVectors(er, er.NonMatchingPairs(maxN, rand.New(rand.NewSource(8))))
		assertVectorsEqual(t, fmt.Sprintf("NonMatchingVectors(%d)", maxN), got, want)
	}

	// The reference ranking: score with SimVector, stable-sort by mean.
	var cands []Pair
	for i := 0; i < er.A.Len(); i++ {
		for j := 0; j < er.B.Len(); j += 2 {
			cands = append(cands, Pair{A: i, B: j})
		}
	}
	matchSet := er.MatchSet()
	var ref []LabeledPair
	for _, p := range cands {
		if !matchSet[p] {
			ref = append(ref, LabeledPair{Pair: p, Vector: referenceVectors(er, []Pair{p})[0]})
		}
	}
	sort.SliceStable(ref, func(i, j int) bool { return meanOf(ref[i].Vector) > meanOf(ref[j].Vector) })
	hard := HardestNonMatches(er, cands, 50)
	if len(hard) != 50 {
		t.Fatalf("HardestNonMatches returned %d pairs, want 50", len(hard))
	}
	for i, lp := range hard {
		if lp.Pair != ref[i].Pair {
			t.Fatalf("hardest %d = %+v, reference %+v", i, lp.Pair, ref[i].Pair)
		}
		assertVectorsEqual(t, "HardestNonMatches", [][]float64{lp.Vector}, [][]float64{ref[i].Vector})
	}
}
