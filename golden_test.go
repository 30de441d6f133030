package serd_test

import (
	"crypto/sha256"
	"encoding/hex"
	"path/filepath"
	"strings"
	"testing"

	"serd"
)

// goldenCase is one pinned synthesis run: the SHA-256 of every output
// file of a fixed-seed DBLP-ACM synthesis. The hashes are what lets a
// kernel optimization claim to be bit-identical; a change that alters the
// output stream on purpose re-pins them with a rationale in CHANGES.md.
type goldenCase struct {
	name string
	gen  serd.Generator
	// edit, when set, rewrites the generated input (values and background
	// corpora) before the synthesizers are built.
	edit func(g *serd.SampleDataset)
	want map[string]string
}

var goldenCases = []goldenCase{
	{
		name: "default",
		want: map[string]string{
			"A.csv":       "916304e91b74c3a60bdb3a995b90d25f2c2c21040e3a61de1cbd15348b7aa2f2",
			"B.csv":       "9f46d4ad77a239f610cdbe0add8df099714f50c2da299362e3d4215e9b998a68",
			"matches.csv": "b85145e1b4ddcc1be0f9742b6916bb870ba2dfc41c91ed3ea6d0f2d7d970dd8a",
		},
	},
	{
		name: "privbayes",
		gen:  serd.PrivBayesGenerator{Epsilon: 2},
		want: map[string]string{
			"A.csv":       "4f1c7cbc321de71297db16619b5063a7cd6c224607e2b61ba8d5cc07951420a4",
			"B.csv":       "41db137a16774a3d78d4176b819cc4477adf123bb1bdf1a662ed809b430f6599",
			"matches.csv": "2a3e52b873a01bec641012217a492b354d2954bfc6cbca16fcd395af25f88a51",
		},
	},
	{
		name: "folding",
		edit: foldingEdit,
		want: map[string]string{
			"A.csv":       "19e70d6e7428aa4fe0606e06753b2aea63f322f01ba98e8acaa00442298395fc",
			"B.csv":       "76dd029f034627b9b6b2f128166fc6883210fdbe76b82dafa6ec58ff81ec6263",
			"matches.csv": "0bf1ccce4e066a70a579d187766642788b1b981b50ef948d7d5f94f2158b1740",
		},
	},
}

// foldingEdit puts text that only Unicode case folding handles into the
// input: non-ASCII capitals whose lower case differs in byte length (İ
// lowers to a one-byte i), a capital umlaut, and bytes that are not valid
// UTF-8, which case folding turns into U+FFFD. It touches every textual and
// categorical column and both background corpora, so the q-gram kernels of
// S1, the string walk, categorical synthesis and token repair all see it.
func foldingEdit(g *serd.SampleDataset) {
	rewrite := func(i int, v string) string {
		switch i % 5 {
		case 0:
			return "Über " + v
		case 1:
			return strings.Replace(v, "i", "İ", 2)
		case 2:
			return v + " D\xffat\xfea"
		case 3:
			return "ÄRGER\xc3 " + strings.ToUpper(v)
		}
		return v
	}
	for _, rel := range []*serd.Relation{g.ER.A, g.ER.B} {
		for i, e := range rel.Entities {
			for c, col := range g.ER.Schema().Cols {
				if col.Kind == serd.Textual || col.Kind == serd.Categorical {
					e.Values[c] = rewrite(i+c, e.Values[c])
				}
			}
		}
	}
	for name, corpus := range g.Background {
		for i := range corpus {
			corpus[i] = rewrite(i, corpus[i])
		}
		g.Background[name] = corpus
	}
}

// TestGoldenOutputHashes runs default SERD (GMM S1, §V rejection active),
// the PrivBayes backend, and default SERD on case-folding-sensitive input
// on a small DBLP-ACM sample and checks the output bytes against the
// pinned hashes.
func TestGoldenOutputHashes(t *testing.T) {
	for _, gc := range goldenCases {
		t.Run(gc.name, func(t *testing.T) {
			g, err := serd.Sample("DBLP-ACM", serd.SampleConfig{Seed: 5, SizeA: 80, SizeB: 70, Matches: 60})
			if err != nil {
				t.Fatal(err)
			}
			if gc.edit != nil {
				gc.edit(g)
			}
			synths, err := serd.RuleSynthesizers(g)
			if err != nil {
				t.Fatal(err)
			}
			res, err := serd.Synthesize(g.ER, serd.Options{Synthesizers: synths, Seed: 11, Generator: gc.gen})
			if err != nil {
				t.Fatal(err)
			}
			if res.RejectedByDistribution == 0 {
				t.Fatal("no candidate was rejected by distribution: the golden run does not exercise Eq. 10")
			}
			dir := filepath.Join(t.TempDir(), gc.name)
			if err := serd.SaveDataset(dir, res.Syn); err != nil {
				t.Fatal(err)
			}
			for name, data := range readDataset(t, dir) {
				sum := sha256.Sum256([]byte(data))
				if got := hex.EncodeToString(sum[:]); got != gc.want[name] {
					t.Errorf("%s: sha256 %s, want %s", name, got, gc.want[name])
				}
			}
		})
	}
}
