// Package perturb implements string perturbation operators: controlled
// edits that turn a value into a "dirty duplicate" of itself. They drive
// the match generation of the surrogate datasets, the EMBench baseline's
// rule-based entity modification, and the construction of similarity-bucket
// training pairs for the string synthesizer.
package perturb

import (
	"math/rand"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Op transforms a string into a perturbed variant using r.
type Op func(s string, r *rand.Rand) string

// Typo substitutes one letter for a random lowercase letter.
func Typo(s string, r *rand.Rand) string {
	v, off, w, ok := pickLetter(s, r)
	if !ok {
		return s
	}
	return v[:off] + string(rune('a'+r.Intn(26))) + v[off+w:]
}

// DeleteChar removes one letter.
func DeleteChar(s string, r *rand.Rand) string {
	v, off, w, ok := pickLetter(s, r)
	if !ok {
		return s
	}
	return v[:off] + v[off+w:]
}

// DuplicateChar doubles one letter.
func DuplicateChar(s string, r *rand.Rand) string {
	v, off, w, ok := pickLetter(s, r)
	if !ok {
		return s
	}
	return v[:off+w] + v[off:]
}

// pickLetter draws one of s's letters uniformly with r.Intn and returns
// string([]rune(s)) with the letter's byte offset and width in it; ok is
// false, and r untouched, when s has no letter. The letter ops splice
// bytes of that string, which equals editing []rune(s) and converting
// back. The conversion is a copy only for invalid UTF-8, where it rewrites
// each invalid byte as U+FFFD (not a letter, so the count is the same).
func pickLetter(s string, r *rand.Rand) (v string, off, width int, ok bool) {
	n := 0
	for _, c := range s {
		if unicode.IsLetter(c) {
			n++
		}
	}
	if n == 0 {
		return s, 0, 0, false
	}
	if !utf8.ValidString(s) {
		s = string([]rune(s))
	}
	k := r.Intn(n)
	for i, c := range s {
		if unicode.IsLetter(c) {
			if k == 0 {
				return s, i, utf8.RuneLen(c), true
			}
			k--
		}
	}
	panic("perturb: letter count changed")
}

// DropToken removes one whitespace-separated token (never the only one).
func DropToken(s string, r *rand.Rand) string {
	t := strings.Fields(s)
	if len(t) < 2 {
		return s
	}
	i := r.Intn(len(t))
	return strings.Join(append(t[:i:i], t[i+1:]...), " ")
}

// SwapTokens exchanges two adjacent tokens.
func SwapTokens(s string, r *rand.Rand) string {
	t := strings.Fields(s)
	if len(t) < 2 {
		return s
	}
	i := r.Intn(len(t) - 1)
	t[i], t[i+1] = t[i+1], t[i]
	return strings.Join(t, " ")
}

// LowerCase folds the string to lower case.
func LowerCase(s string, _ *rand.Rand) string { return strings.ToLower(s) }

// TitleCase upper-cases the first letter of every token.
func TitleCase(s string, _ *rand.Rand) string {
	t := strings.Fields(s)
	for i, w := range t {
		runes := []rune(w)
		if len(runes) > 0 {
			runes[0] = unicode.ToUpper(runes[0])
		}
		t[i] = string(runes)
	}
	return strings.Join(t, " ")
}

// AbbreviateFirstNames shortens every token except the last of each
// comma-separated person name to its initial: "Donald Kossmann, Alfons
// Kemper" -> "D. Kossmann, A. Kemper" (EMBench's abbreviation rule).
func AbbreviateFirstNames(s string, _ *rand.Rand) string {
	names := strings.Split(s, ",")
	for i, n := range names {
		t := strings.Fields(n)
		if len(t) < 2 {
			names[i] = strings.TrimSpace(n)
			continue
		}
		for j := 0; j < len(t)-1; j++ {
			runes := []rune(t[j])
			if len(runes) > 1 {
				t[j] = string(runes[0]) + "."
			}
		}
		names[i] = strings.Join(t, " ")
	}
	return strings.Join(names, ", ")
}

// ReorderNames shuffles comma-separated person names (a common source of
// low author similarity between bibliographic sources).
func ReorderNames(s string, r *rand.Rand) string {
	names := strings.Split(s, ", ")
	if len(names) < 2 {
		return s
	}
	r.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	return strings.Join(names, ", ")
}

// Light returns the mild operator set used for matching-pair generation:
// token reorder, case changes, single-character noise.
func Light() []Op {
	return []Op{Typo, DeleteChar, DuplicateChar, SwapTokens, LowerCase, TitleCase}
}

// Heavy returns the aggressive operator set (adds token drops and name
// rewrites) used to push similarity down toward mid buckets.
func Heavy() []Op {
	return append(Light(), DropToken, AbbreviateFirstNames, ReorderNames)
}

// Apply applies n operators drawn from ops to s.
func Apply(s string, ops []Op, n int, r *rand.Rand) string {
	for i := 0; i < n; i++ {
		s = ops[r.Intn(len(ops))](s, r)
	}
	return s
}

// TowardSimilarity perturbs s repeatedly until sim(s, s') is within tol of
// target (or maxSteps edits have been applied), returning the closest
// variant found. sim must be symmetric in its arguments; every call passes
// s as the first, so callers bind s once (simfn.Bind) and score only the
// candidate. This is the workhorse behind similarity-bucketed
// training-pair construction and the rule synthesizer's edit walk.
//
// The walk uses token- and character-level ops but not name abbreviation:
// "T. S. O." artifacts on non-name text read as obviously fake, and
// callers that want abbreviation apply it directly.
func TowardSimilarity(s string, target, tol float64, sim func(a, b string) float64, maxSteps int, r *rand.Rand) (string, float64) {
	ops := []Op{Typo, DeleteChar, DropToken, SwapTokens, LowerCase, TitleCase}
	best, bestSim := s, sim(s, s)
	cur := s
	for i := 0; i < maxSteps; i++ {
		if diff := bestSim - target; diff <= tol && diff >= -tol {
			return best, bestSim
		}
		cand := Apply(cur, ops, 1, r)
		cs := sim(s, cand)
		if abs(cs-target) < abs(bestSim-target) {
			best, bestSim = cand, cs
		}
		// Keep walking from the candidate while it is still above the
		// target (edits only reduce similarity in expectation); restart
		// from the original when we overshoot.
		if cs > target {
			cur = cand
		} else {
			cur = s
		}
	}
	return best, bestSim
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
