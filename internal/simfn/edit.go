package simfn

// EditSim is the normalized Levenshtein similarity:
// 1 - editDistance(a, b) / max(len(a), len(b)), over runes.
type EditSim struct{}

// Name implements Func.
func (EditSim) Name() string { return "edit-sim" }

// Sim implements Func. Both-empty inputs compare equal (similarity 1).
func (EditSim) Sim(a, b string) float64 {
	ra, rb := []rune(a), []rune(b)
	n := len(ra)
	if len(rb) > n {
		n = len(rb)
	}
	if n == 0 {
		return 1
	}
	return 1 - float64(EditDistance(a, b))/float64(n)
}

// EditDistance returns the Levenshtein distance between a and b over runes,
// with unit costs for insertion, deletion and substitution.
func EditDistance(a, b string) int {
	return EditDistanceRunes([]rune(a), []rune(b), nil)
}

// EditDistanceRunes is EditDistance over decoded runes, running its
// dynamic program in scratch when len(scratch) >= 2*(len(b)+1) and
// allocating the two rows otherwise. Callers that decode into stack
// buffers and pass stack scratch compare without allocating.
func EditDistanceRunes(a, b []rune, scratch []int) int {
	if len(a) == 0 {
		return len(b)
	}
	if len(b) == 0 {
		return len(a)
	}
	// Single-row dynamic program.
	if len(scratch) < 2*(len(b)+1) {
		scratch = make([]int, 2*(len(b)+1))
	}
	prev, cur := scratch[:len(b)+1], scratch[len(b)+1:2*(len(b)+1)]
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			m := prev[j-1] + cost        // substitute
			if d := prev[j] + 1; d < m { // delete
				m = d
			}
			if d := cur[j-1] + 1; d < m { // insert
				m = d
			}
			cur[j] = m
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}
