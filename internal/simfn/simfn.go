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
	"unicode"
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
// b. QGramJaccard with Q <= 3 goes further and scores b in one
// allocation-free pass against a hashed gram set. The returned function
// equals f.Sim(a, b) exactly.
func Bind(f Func, a string) func(b string) float64 {
	if bf, ok := f.(binder); ok {
		if sim := bf.bind(a); sim != nil {
			return sim
		}
	}
	if pp, ok := f.(Preprocessor); ok {
		pa := pp.Prep(a)
		return func(b string) float64 { return pp.SimPrepped(pa, pp.Prep(b)) }
	}
	return func(b string) float64 { return f.Sim(a, b) }
}

// binder is implemented by functions with a bound form cheaper than
// Prep(b) per call. bind returns nil when f has none for its parameters,
// and Bind falls back to Prep/SimPrepped.
type binder interface {
	bind(a string) func(b string) float64
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
	q := f.q()
	if q > maxPackedQ {
		return jaccardSorted(sortedQGrams(f.fold(a), q), sortedQGrams(f.fold(b), q))
	}
	return jaccardSorted(packedQGrams(a, q, f.Fold), packedQGrams(b, q, f.Fold))
}

// Prep implements Preprocessor: the case-folded, sorted q-gram set —
// packed []uint64 grams for q <= maxPackedQ, []string grams above.
func (f QGramJaccard) Prep(v string) any {
	q := f.q()
	if q > maxPackedQ {
		return sortedQGrams(f.fold(v), q)
	}
	return packedQGrams(v, q, f.Fold)
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
// bit. Every packed gram has at least one non-zero field, so no gram is 0.
const (
	maxPackedQ  = 3
	runeBits    = 21
	invalidBase = utf8.MaxRune + 2
)

// runeCode decodes the rune starting at s[i] into its packed field and
// returns the field and the rune's width in bytes. With fold set the field
// is that of the rune strings.ToLower(s) holds in its place: ASCII bytes
// and valid runes map through unicode.ToLower, and a byte that is not
// valid UTF-8 becomes U+FFFD. This is the one place folding is defined for
// packed grams; Prep, Sim and the bound kernel all decode through it.
func runeCode(s string, i int, fold bool) (uint64, int) {
	c := s[i]
	if c < utf8.RuneSelf {
		if fold && c-'A' < 26 {
			c += 'a' - 'A'
		}
		return uint64(c) + 1, 1
	}
	r, w := utf8.DecodeRuneInString(s[i:])
	switch {
	case fold:
		// An invalid byte decodes as U+FFFD, which folds to itself.
		r = unicode.ToLower(r)
	case r == utf8.RuneError && w == 1:
		return invalidBase + uint64(s[i]), 1
	}
	return uint64(r) + 1, w
}

// packedQGrams is sortedQGrams over packed grams of the (optionally
// folded) value: the sorted, deduplicated set of q-grams of s for
// q <= maxPackedQ.
func packedQGrams(s string, q int, fold bool) []uint64 {
	if s == "" {
		return nil
	}
	n := utf8.RuneCountInString(s)
	out := make([]uint64, 0, max(n-q+1, 1))
	var g uint64
	mask := gramMask(q)
	for i, k := 0, 1; i < len(s); k++ {
		c, w := runeCode(s, i, fold)
		g = (g<<runeBits | c) & mask
		if k >= q {
			out = append(out, g)
		}
		i += w
	}
	if n < q {
		// Shorter than q: the whole value is its one gram.
		return append(out, g)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// gramMask keeps the low q fields of a rolling packed gram.
func gramMask(q int) uint64 { return 1<<(runeBits*q) - 1 }

// Hashed bound q-grams. Bind on a QGramJaccard with q <= maxPackedQ packs
// a's grams once into an open-addressing set of packed grams (0, which no
// gram packs to, marks an empty slot). Each call streams b once: decode,
// fold, roll the packed gram, dedup b's grams in a table sized from len(b)
// — on the stack up to bindStackBytes — and count |B| and |A∩B|. The
// counts are the integers the sorted merge produces, so every value is
// bit-equal to Sim.
const (
	bindStackBytes = 128
	gramHashMul    = 0x9E3779B97F4A7C15 // 2^64 / golden ratio
)

// gramSet is an open-addressing hash set of packed grams with linear
// probing; len(slots) is a power of two at least twice the gram count.
type gramSet struct {
	slots []uint64
	shift uint // 64 - log2(len(slots))
	n     int  // distinct grams held
	q     int
	fold  bool
}

// bind implements binder for q <= maxPackedQ.
func (f QGramJaccard) bind(a string) func(b string) float64 {
	q := f.q()
	if q > maxPackedQ {
		return nil
	}
	grams := packedQGrams(a, q, f.Fold)
	set := &gramSet{n: len(grams), q: q, fold: f.Fold}
	set.slots, set.shift = gramTable(len(grams), nil)
	for _, g := range grams {
		insertGram(set.slots, set.shift, g)
	}
	return set.jaccard
}

// gramTable returns a zeroed table with at least 2n slots (at least 8),
// carved from buf when it is large enough, and its hash shift.
func gramTable(n int, buf []uint64) ([]uint64, uint) {
	size, shift := 8, uint(61)
	for size < 2*n {
		size <<= 1
		shift--
	}
	if size <= len(buf) {
		return buf[:size], shift
	}
	return make([]uint64, size), shift
}

// insertGram adds g to the table and reports whether it was absent.
func insertGram(slots []uint64, shift uint, g uint64) bool {
	mask := uint64(len(slots) - 1)
	for i := (g * gramHashMul) >> shift; ; i = (i + 1) & mask {
		switch slots[i] {
		case g:
			return false
		case 0:
			slots[i] = g
			return true
		}
	}
}

// has reports whether g is in the set.
func (s *gramSet) has(g uint64) bool {
	mask := uint64(len(s.slots) - 1)
	for i := (g * gramHashMul) >> s.shift; ; i = (i + 1) & mask {
		switch s.slots[i] {
		case g:
			return true
		case 0:
			return false
		}
	}
}

// jaccard is the bound similarity: Sim(a, b) for the value a the set was
// built from.
func (s *gramSet) jaccard(b string) float64 {
	var buf [2 * bindStackBytes]uint64
	// b has at most len(b) runes, hence at most len(b) distinct grams.
	seen, shift := gramTable(len(b), buf[:])
	nb, inter := 0, 0
	var g uint64
	mask := gramMask(s.q)
	k := 0
	for i := 0; i < len(b); {
		// Bytes that decode and fold to themselves skip the (not inlined)
		// decoder call.
		c, w := uint64(b[i])+1, 1
		if x := b[i]; x >= utf8.RuneSelf || s.fold && x-'A' < 26 {
			c, w = runeCode(b, i, s.fold)
		}
		g = (g<<runeBits | c) & mask
		i += w
		// A value shorter than q is its own single gram.
		if k++; k >= s.q || (i == len(b) && k < s.q) {
			if insertGram(seen, shift, g) {
				nb++
				if s.has(g) {
					inter++
				}
			}
		}
	}
	switch {
	case s.n == 0 && nb == 0:
		return 1
	case s.n == 0 || nb == 0:
		return 0
	}
	return float64(inter) / float64(s.n+nb-inter)
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
// fall far outside [Min, Max] clamp to similarity 0. Values that fail to
// parse as finite floats ("NaN" and "Inf" parse, but are not numbers a
// column can be scaled by) compare by string equality.
type Numeric struct {
	Min, Max float64
}

// Name implements Func.
func (Numeric) Name() string { return "numeric-minmax" }

// Sim implements Func.
func (f Numeric) Sim(a, b string) float64 {
	x, okX := parseFinite(a)
	y, okY := parseFinite(b)
	if !okX || !okY {
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
// roots, §IV-B1) and clamping to [Min, Max]. When a does not parse as a
// finite float, the original value is returned with similarity 1.
func (f Numeric) Invert(a string, target float64, next func() float64) (string, float64) {
	x, ok := parseFinite(a)
	if !ok {
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

// parseFinite parses v as a float and reports whether it is a finite
// number.
func parseFinite(v string) (float64, bool) {
	x, err := strconv.ParseFloat(v, 64)
	return x, err == nil && !math.IsNaN(x) && !math.IsInf(x, 0)
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
