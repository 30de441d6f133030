// Package simfn provides the attribute similarity functions used throughout
// the SERD pipeline (paper §II-B).
//
// Every function maps a pair of attribute values, represented as strings, to
// a similarity score in [0, 1]. The paper's default configuration — 3-gram
// Jaccard for categorical and textual columns, min-max scaled absolute
// difference for numeric and date columns — is available through
// DefaultForKind.
package simfn

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Func computes a similarity score in [0, 1] between two attribute values.
type Func interface {
	// Name identifies the function, e.g. "3gram-jaccard".
	Name() string
	// Sim returns the similarity of a and b. Implementations must be
	// symmetric (Sim(a,b) == Sim(b,a)) and return values in [0, 1].
	Sim(a, b string) float64
}

// Preprocessor is implemented by similarity functions whose per-value
// tokenization dominates Sim's cost and can be hoisted out of comparison
// loops (q-gram and token sets). The hot paths — the rule synthesizer's
// edit walks, categorical synthesis, and similarity-vector computation —
// prep each value once and compare prepped representations.
type Preprocessor interface {
	Func
	// Prep returns a reusable representation of v.
	Prep(v string) any
	// SimPrepped computes the similarity of two Prep results. For any
	// values a and b, SimPrepped(Prep(a), Prep(b)) must equal Sim(a, b)
	// bit for bit — preprocessing is a caching layer, never an
	// approximation.
	SimPrepped(a, b any) float64
}

// Bind returns sim(a, ·) with a's preprocessing hoisted out of the loop:
// when f is a Preprocessor, a is prepped once and every call pays only for
// b. The returned function equals f.Sim(a, b) exactly.
func Bind(f Func, a string) func(b string) float64 {
	if pp, ok := f.(Preprocessor); ok {
		pa := pp.Prep(a)
		return func(b string) float64 { return pp.SimPrepped(pa, pp.Prep(b)) }
	}
	return func(b string) float64 { return f.Sim(a, b) }
}

// Inverter is implemented by similarity functions that can synthesize a
// counterpart value: given an existing value and a target similarity, Invert
// returns a value v with Sim(a, v) as close as possible to target. The
// returned similarity is Sim(a, v). next is a deterministic source of
// uniform floats in [0,1) used to break ties (e.g. the ± choice for numeric
// columns, paper §IV-B1).
type Inverter interface {
	Func
	Invert(a string, target float64, next func() float64) (v string, sim float64)
}

// QGramJaccard is the q-gram Jaccard similarity. The paper uses Q = 3
// ("3-gram jaccard") for categorical and textual columns. With Fold set,
// values are lower-cased before comparison — the paper's Figure 1(c) scores
// a case-only title difference as 1.0, implying case folding.
type QGramJaccard struct {
	Q    int
	Fold bool
}

// Name implements Func.
func (f QGramJaccard) Name() string { return fmt.Sprintf("%dgram-jaccard", f.q()) }

func (f QGramJaccard) q() int {
	if f.Q <= 0 {
		return 3
	}
	return f.Q
}

// Sim implements Func. Both-empty inputs compare equal (similarity 1).
func (f QGramJaccard) Sim(a, b string) float64 {
	a, b, q := f.fold(a), f.fold(b), f.q()
	if q > maxPackedQ {
		return jaccardSorted(sortedQGrams(a, q), sortedQGrams(b, q))
	}
	return jaccardSorted(packedQGrams(a, q), packedQGrams(b, q))
}

// Prep implements Preprocessor: the case-folded, sorted q-gram set —
// packed []uint64 grams for q <= maxPackedQ, []string grams above.
func (f QGramJaccard) Prep(v string) any {
	v, q := f.fold(v), f.q()
	if q > maxPackedQ {
		return sortedQGrams(v, q)
	}
	return packedQGrams(v, q)
}

// SimPrepped implements Preprocessor.
func (f QGramJaccard) SimPrepped(a, b any) float64 {
	if f.q() > maxPackedQ {
		return jaccardSorted(a.([]string), b.([]string))
	}
	return jaccardSorted(a.([]uint64), b.([]uint64))
}

func (f QGramJaccard) fold(s string) string {
	if f.Fold {
		return strings.ToLower(s)
	}
	return s
}

// QGrams returns the multiset-collapsed set of q-grams of s, computed over
// runes. A non-empty string shorter than q contributes itself as a single
// gram, so short values still compare meaningfully.
func QGrams(s string, q int) map[string]struct{} {
	set := make(map[string]struct{})
	if s == "" {
		return set
	}
	r := []rune(s)
	if len(r) < q {
		set[string(r)] = struct{}{}
		return set
	}
	for i := 0; i+q <= len(r); i++ {
		set[string(r[i:i+q])] = struct{}{}
	}
	return set
}

// sortedQGrams returns the multiset-collapsed q-grams of s as a sorted,
// deduplicated slice with the same semantics as QGrams. Each gram is a
// rune-aligned substring of s (no per-gram copy), and sorted slices
// intersect by merge in jaccardSorted without hashing. It is the
// representation for q > maxPackedQ and the reference packedQGrams is
// tested against.
func sortedQGrams(s string, q int) []string {
	if s == "" {
		return nil
	}
	// Byte offsets of every rune start, plus the terminating length.
	idx := make([]int, 0, len(s)+1)
	for i := range s {
		idx = append(idx, i)
	}
	idx = append(idx, len(s))
	n := len(idx) - 1 // rune count
	if n < q {
		return []string{s}
	}
	out := make([]string, 0, n-q+1)
	for i := 0; i+q <= n; i++ {
		out = append(out, s[idx[i]:idx[i+q]])
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// Packed q-grams. A gram of up to maxPackedQ rune positions packs into a
// uint64, runeBits bits per position. A position holds rune+1 for a valid
// rune, invalidBase+b for a byte b that is not valid UTF-8 (ranging over a
// string decodes it as a width-1 U+FFFD, which must not collide with a
// literal U+FFFD), and 0 when the position is absent. Absent positions are
// the leading fields of the whole-string gram of a value shorter than q;
// they keep that gram distinct from every full gram. The packing is
// injective on the rune-aligned substrings sortedQGrams produces, so set
// sizes, intersections and Jaccard values match the string form bit for
// bit.
const (
	maxPackedQ  = 3
	runeBits    = 21
	invalidBase = utf8.MaxRune + 2
)

// packedQGrams is sortedQGrams over packed grams: the sorted,
// deduplicated set of q-grams of s for q <= maxPackedQ.
func packedQGrams(s string, q int) []uint64 {
	if s == "" {
		return nil
	}
	// Per-rune codes; most values are short, so the buffer stays on the
	// stack.
	var buf [64]uint64
	codes := buf[:0]
	for i := 0; i < len(s); {
		r, w := utf8.DecodeRuneInString(s[i:])
		c := uint64(r) + 1
		if r == utf8.RuneError && w == 1 {
			c = invalidBase + uint64(s[i])
		}
		codes = append(codes, c)
		i += w
	}
	if len(codes) < q {
		return []uint64{packGram(codes)}
	}
	out := make([]uint64, 0, len(codes)-q+1)
	for i := 0; i+q <= len(codes); i++ {
		out = append(out, packGram(codes[i:i+q]))
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// packGram packs up to maxPackedQ rune codes, the last in the lowest field.
func packGram(codes []uint64) uint64 {
	var g uint64
	for _, c := range codes {
		g = g<<runeBits | c
	}
	return g
}

// jaccardSorted computes the Jaccard similarity of two sorted, deduplicated
// slices by merge intersection. Empty-set conventions: both empty compare
// equal (1), one empty compares disjoint (0).
func jaccardSorted[T cmp.Ordered](a, b []T) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	inter, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			inter++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	union := len(a) + len(b) - inter
	return float64(inter) / float64(union)
}

// TokenJaccard is the Jaccard similarity over whitespace-separated tokens.
type TokenJaccard struct{}

// Name implements Func.
func (TokenJaccard) Name() string { return "token-jaccard" }

// Sim implements Func.
func (TokenJaccard) Sim(a, b string) float64 {
	return jaccardSorted(sortedTokens(a), sortedTokens(b))
}

// Prep implements Preprocessor: the sorted token set.
func (TokenJaccard) Prep(v string) any { return sortedTokens(v) }

// SimPrepped implements Preprocessor.
func (TokenJaccard) SimPrepped(a, b any) float64 {
	return jaccardSorted(a.([]string), b.([]string))
}

// sortedTokens splits on space/tab/newline (the delimiters tokenSet always
// used) into a sorted, deduplicated slice.
func sortedTokens(s string) []string {
	var out []string
	start := -1
	for i, r := range s {
		if r == ' ' || r == '\t' || r == '\n' {
			if start >= 0 {
				out = append(out, s[start:i])
				start = -1
			}
		} else if start < 0 {
			start = i
		}
	}
	if start >= 0 {
		out = append(out, s[start:])
	}
	sort.Strings(out)
	w := 0
	for i, t := range out {
		if i == 0 || t != out[w-1] {
			out[w] = t
			w++
		}
	}
	return out[:w]
}

// Exact is the 0/1 equality similarity.
type Exact struct{}

// Name implements Func.
func (Exact) Name() string { return "exact" }

// Sim implements Func.
func (Exact) Sim(a, b string) float64 {
	if a == b {
		return 1
	}
	return 0
}

// Numeric is the min-max scaled absolute-difference similarity the paper
// uses for numeric columns: 1 - |a-b| / (Max-Min) (Example 2). Values that
// fail to parse as floats, or fall far outside [Min, Max], clamp to
// similarity 0.
type Numeric struct {
	Min, Max float64
}

// Name implements Func.
func (Numeric) Name() string { return "numeric-minmax" }

// Sim implements Func.
func (f Numeric) Sim(a, b string) float64 {
	x, errX := strconv.ParseFloat(a, 64)
	y, errY := strconv.ParseFloat(b, 64)
	if errX != nil || errY != nil {
		if a == b {
			return 1
		}
		return 0
	}
	span := f.Max - f.Min
	if span <= 0 {
		if x == y {
			return 1
		}
		return 0
	}
	s := 1 - math.Abs(x-y)/span
	if s < 0 {
		return 0
	}
	return s
}

// Invert implements Inverter: it solves 1 - |a-v|/(Max-Min) = target for v,
// choosing the + or - branch uniformly (the paper samples one of the two
// roots, §IV-B1) and clamping to [Min, Max]. When a does not parse, the
// original value is returned with similarity 1.
func (f Numeric) Invert(a string, target float64, next func() float64) (string, float64) {
	x, err := strconv.ParseFloat(a, 64)
	if err != nil {
		return a, 1
	}
	span := f.Max - f.Min
	if span <= 0 {
		return a, 1
	}
	delta := (1 - clamp01(target)) * span
	v := x + delta
	if next() < 0.5 {
		v = x - delta
	}
	// Clamp into the column's range; if clamping moved us, the opposite
	// branch may fit better.
	if v < f.Min || v > f.Max {
		alt := x + delta
		if v == alt {
			alt = x - delta
		}
		if alt >= f.Min && alt <= f.Max {
			v = alt
		} else {
			v = math.Max(f.Min, math.Min(f.Max, v))
		}
	}
	out := formatLike(a, v)
	return out, f.Sim(a, out)
}

// formatLike renders v with the same decimal precision as the source value
// a, so synthesized numeric values look like the column they join (years
// stay integers, prices keep two decimals).
func formatLike(a string, v float64) string {
	decimals := 0
	if i := strings.IndexByte(a, '.'); i >= 0 {
		decimals = len(a) - i - 1
	}
	if decimals == 0 {
		return strconv.FormatInt(int64(math.Round(v)), 10)
	}
	return strconv.FormatFloat(v, 'f', decimals, 64)
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Date treats values as integer day ordinals (or any integer-valued time
// unit) with min-max scaling, mirroring the paper's statement that "date
// type has a similar synthesizing process with the numerical type". Callers
// convert real date strings to ordinals in the dataset layer.
type Date struct {
	Min, Max float64
}

// Name implements Func.
func (Date) Name() string { return "date-minmax" }

// Sim implements Func.
func (f Date) Sim(a, b string) float64 { return Numeric(f).Sim(a, b) }

// Invert implements Inverter.
func (f Date) Invert(a string, target float64, next func() float64) (string, float64) {
	return Numeric(f).Invert(a, target, next)
}
