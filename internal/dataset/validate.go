package dataset

import (
	"fmt"
	"math"
	"strconv"
)

// Validate checks a dataset's structural invariants and returns every
// violation found (nil when clean): unique entity IDs per relation,
// consistent arity, in-range match indices, no duplicate match pairs, and
// numeric/date values that parse as finite numbers ("NaN" and "Inf"
// parse, but would poison similarity vectors). The CLI runs it on load so
// malformed CSVs fail loudly instead of skewing distributions.
func Validate(e *ER) []error {
	var errs []error
	if e == nil {
		return []error{fmt.Errorf("dataset: nil dataset")}
	}
	schema := e.Schema()
	checkRel := func(rel *Relation, label string) {
		ids := make(map[string]int, rel.Len())
		for i, ent := range rel.Entities {
			if len(ent.Values) != schema.Len() {
				errs = append(errs, fmt.Errorf("dataset: %s entity %q has %d values, schema has %d columns", label, ent.ID, len(ent.Values), schema.Len()))
			}
			if prev, dup := ids[ent.ID]; dup {
				errs = append(errs, fmt.Errorf("dataset: %s entities %d and %d share id %q", label, prev, i, ent.ID))
			}
			ids[ent.ID] = i
			for ci, col := range schema.Cols {
				if ci >= len(ent.Values) {
					break
				}
				if col.Kind != Numeric && col.Kind != Date {
					continue
				}
				v := ent.Values[ci]
				if v == "" {
					continue // missing numeric values are allowed
				}
				if x, err := strconv.ParseFloat(v, 64); err != nil {
					errs = append(errs, fmt.Errorf("dataset: %s entity %q column %q: %q is not numeric", label, ent.ID, col.Name, v))
				} else if math.IsNaN(x) || math.IsInf(x, 0) {
					errs = append(errs, fmt.Errorf("dataset: %s entity %q column %q: %q is not a finite number", label, ent.ID, col.Name, v))
				}
			}
		}
	}
	checkRel(e.A, "A")
	checkRel(e.B, "B")
	seen := make(map[Pair]bool, len(e.Matches))
	for _, p := range e.Matches {
		if p.A < 0 || p.A >= e.A.Len() || p.B < 0 || p.B >= e.B.Len() {
			errs = append(errs, fmt.Errorf("dataset: match %+v out of range", p))
			continue
		}
		if seen[p] {
			errs = append(errs, fmt.Errorf("dataset: duplicate match %+v", p))
		}
		seen[p] = true
	}
	return errs
}
