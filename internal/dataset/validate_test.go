package dataset

import "testing"

func TestValidateCleanDataset(t *testing.T) {
	er := paperER(t)
	if errs := Validate(er); len(errs) != 0 {
		t.Fatalf("clean dataset reported %v", errs)
	}
}

func TestValidateCatchesViolations(t *testing.T) {
	er := paperER(t)
	// Duplicate ID.
	er.A.Entities[1].ID = er.A.Entities[0].ID
	// Non-numeric year.
	er.B.Entities[0].Values[3] = "not-a-year"
	// Duplicate match.
	er.Matches = append(er.Matches, er.Matches[0])
	// Out-of-range match.
	er.Matches = append(er.Matches, Pair{A: 99, B: 0})
	errs := Validate(er)
	if len(errs) != 4 {
		t.Fatalf("got %d errors, want 4: %v", len(errs), errs)
	}
}

func TestValidateAllowsMissingNumeric(t *testing.T) {
	er := paperER(t)
	er.A.Entities[0].Values[3] = ""
	if errs := Validate(er); len(errs) != 0 {
		t.Fatalf("missing numeric value rejected: %v", errs)
	}
}

func TestValidateNil(t *testing.T) {
	if errs := Validate(nil); len(errs) != 1 {
		t.Fatal("nil dataset must report one error")
	}
}

func TestMatchClusters(t *testing.T) {
	er := paperER(t)
	// paperER: matches {0,0} and {1,1} -> two 1-1 clusters.
	clusters := MatchClusters(er)
	if len(clusters) != 2 {
		t.Fatalf("got %d clusters, want 2", len(clusters))
	}
	if len(OneToOneViolations(er)) != 0 {
		t.Error("clean 1-1 matches flagged")
	}
	// Add a0-b1: b1 now links a0 and a1, merging both clusters into one
	// {a0,a1}x{b0,b1} component - a 1-1 violation.
	er.Matches = append(er.Matches, Pair{A: 0, B: 1})
	v := OneToOneViolations(er)
	if len(v) != 1 {
		t.Fatalf("got %d violations, want 1", len(v))
	}
	if len(v[0].A) != 2 || len(v[0].B) != 2 {
		t.Errorf("violation shape = %+v", v[0])
	}
}

func TestMatchClustersTransitive(t *testing.T) {
	er := paperER(t)
	// a0-b0, a1-b0 and a1-b1 chain into one component {a0,a1} x {b0,b1}.
	er.Matches = []Pair{{A: 0, B: 0}, {A: 1, B: 0}, {A: 1, B: 1}}
	clusters := MatchClusters(er)
	if len(clusters) != 1 {
		t.Fatalf("got %d clusters, want 1", len(clusters))
	}
	if len(clusters[0].A) != 2 || len(clusters[0].B) != 2 {
		t.Errorf("cluster = %+v", clusters[0])
	}
}

func TestProfile(t *testing.T) {
	er := paperER(t)
	er.A.Entities[0].Values[1] = "" // one missing author
	profs := Profile(er.A)
	if len(profs) != 4 {
		t.Fatalf("got %d profiles", len(profs))
	}
	authors := profs[1]
	if authors.Name != "authors" || authors.MissingRate <= 0 {
		t.Errorf("authors profile = %+v", authors)
	}
	if profs[0].Distinct != 3 || profs[0].MeanLength <= 0 {
		t.Errorf("title profile = %+v", profs[0])
	}
}

// TestValidateRejectsNonFiniteNumerics: strconv.ParseFloat accepts "NaN"
// and "Inf", which would turn numeric similarities into NaN; Validate
// must report them like unparsable values.
func TestValidateRejectsNonFiniteNumerics(t *testing.T) {
	for _, c := range []struct {
		v    string
		errs int
	}{
		{"NaN", 1}, {"nan", 1}, {"Inf", 1}, {"+Inf", 1}, {"-infinity", 1},
		{"1e400", 1}, // out of range: ParseFloat returns ±Inf with an error
		{"2001", 0}, {"-3.5", 0}, {"1e3", 0}, {"", 0},
	} {
		er := paperER(t)
		er.A.Entities[0].Values[3] = c.v
		if errs := Validate(er); len(errs) != c.errs {
			t.Errorf("year %q: %d errors %v, want %d", c.v, len(errs), errs, c.errs)
		}
	}
}
