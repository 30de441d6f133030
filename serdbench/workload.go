package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"serd/internal/blocking"
	"serd/internal/checkpoint"
	"serd/internal/datagen"
	"serd/internal/dataset"
	"serd/internal/generator"
	"serd/internal/journal"
	"serd/internal/textsynth"
)

// workload is one benchmark input shape: a surrogate dataset generated
// from the run's seed plus the pipeline options a user of that shape
// would pick. Why each one exists is in README.md.
type workload struct {
	name string
	// gen builds the surrogate real dataset at sizeA×sizeB with matches
	// pairs.
	gen                   func(datagen.Config) (*datagen.Generated, error)
	schema                func() *dataset.Schema
	sizeA, sizeB, matches int
	// rejection is the paper's §V rejection; off is the SERD- ablation.
	rejection bool
	// blocked restricts S3 to q-gram candidates on the first textual
	// column; unblocked is the paper's exact quadratic S3.
	blocked bool
	// privbayes selects the PrivBayes S1 backend at epsilon instead of the
	// default GMM stack.
	privbayes bool
	epsilon   float64
	// durable arms the write path: journal, privacy ledger, checkpoints
	// every checkpointEvery entities and streamed dataset output.
	durable bool
}

// checkpointEvery is cmd/serd's -checkpoint-every default.
const checkpointEvery = 25

var workloads = []workload{
	{
		name:    "dblp-rejection",
		gen:     datagen.Scholar,
		schema:  datagen.ScholarSchema,
		sizeA:   250,
		sizeB:   220,
		matches: 212,
		// The paper's default SERD: GMM S1, rejection on, rule
		// synthesizers, q-gram blocked S3.
		rejection: true,
		blocked:   true,
	},
	{
		name:    "dblp-serdminus-exact",
		gen:     datagen.Scholar,
		schema:  datagen.ScholarSchema,
		sizeA:   500,
		sizeB:   440,
		matches: 425,
	},
	{
		name:      "dblp-privbayes-durable",
		gen:       datagen.Scholar,
		schema:    datagen.ScholarSchema,
		sizeA:     250,
		sizeB:     220,
		matches:   212,
		rejection: true,
		blocked:   true,
		privbayes: true,
		epsilon:   2,
		durable:   true,
	},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// writeInput generates the workload's real dataset from seed and writes
// it the way cmd/datagen does — A.csv, B.csv, matches.csv and one
// background_<column>.txt corpus per textual column — so set-up reads it
// from disk like a user's run. Generation is the benchmark's own cost and
// is not part of setup_s.
func (w workload) writeInput(dir string, seed int64) error {
	g, err := w.gen(datagen.Config{Seed: seed, SizeA: w.sizeA, SizeB: w.sizeB, Matches: w.matches})
	if err != nil {
		return err
	}
	if err := dataset.SaveDir(dir, g.ER); err != nil {
		return err
	}
	for col, lines := range g.Background {
		data := strings.Join(lines, "\n") + "\n"
		if err := os.WriteFile(filepath.Join(dir, "background_"+col+".txt"), []byte(data), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// generator returns the S1 backend: nil is the default GMM path.
func (w workload) generator() generator.Generator {
	if w.privbayes {
		return generator.PrivBayes{Epsilon: w.epsilon}
	}
	return nil
}

// titleQGram is cmd/serd's `-s3-blocker qgram`, which keys on the first
// textual column: the DBLP-ACM title.
var titleQGram = blocking.QGram{Column: 0}

// blocker returns the S3 blocker: nil is the paper's exact S3.
func (w workload) blocker() blocking.Blocker {
	if !w.blocked {
		return nil
	}
	return titleQGram
}

// session is everything a user's run prepares before synthesis starts:
// the real dataset loaded from disk, one rule synthesizer per textual
// column and, on the durable workload, the open journal, ledger,
// checkpoint directory and stream writer.
type session struct {
	real   *dataset.ER
	synths map[string]textsynth.Synthesizer

	outDir, journalPath string
	jr                  *journal.Journal
	ledger              *journal.Ledger
	cp                  *checkpoint.Checkpointer
	sw                  *dataset.StreamWriter
}

// open performs the set-up a cmd/serd run does before synthesis, mirroring
// its order: load the input, build the synthesizers, then (durable only)
// create the journal with its run-start and input-lineage events, the
// ledger, the checkpoint directory and the stream writer under runDir.
func (w workload) open(inDir, runDir string, seed int64) (*session, error) {
	schema := w.schema()
	real, err := dataset.LoadDir(inDir, schema)
	if err != nil {
		return nil, err
	}
	s := &session{real: real, synths: make(map[string]textsynth.Synthesizer)}
	for _, col := range schema.Cols {
		if col.Kind != dataset.Textual {
			continue
		}
		corpus, err := readLines(filepath.Join(inDir, "background_"+col.Name+".txt"))
		if err != nil {
			return nil, err
		}
		rs, err := textsynth.NewRuleSynthesizer(col.Sim, corpus)
		if err != nil {
			return nil, err
		}
		s.synths[col.Name] = rs
	}
	if !w.durable {
		return s, nil
	}
	s.outDir = filepath.Join(runDir, "out")
	if err := os.MkdirAll(s.outDir, 0o755); err != nil {
		return nil, err
	}
	s.journalPath = filepath.Join(s.outDir, journal.DefaultName)
	if s.jr, err = journal.Create(s.journalPath); err != nil {
		return nil, err
	}
	s.jr.RunStart("serdbench", seed, map[string]string{
		"workload":          w.name,
		"s1_generator":      "privbayes",
		"generator_epsilon": fmt.Sprint(w.epsilon),
		"s3_blocker":        "qgram",
	})
	if err := s.jr.Lineage("input", inDir); err != nil {
		s.close()
		return nil, err
	}
	s.ledger = journal.NewLedger(s.jr)
	s.cp, err = checkpoint.New(checkpoint.Config{Dir: filepath.Join(runDir, "ckpt"), Every: checkpointEvery, Tool: "serdbench", Seed: seed, Journal: s.jr})
	if err != nil {
		s.close()
		return nil, err
	}
	if s.sw, err = dataset.NewStreamWriter(s.outDir, schema); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// close releases an unfinished session: the stream writer's temp files
// are discarded and the journal closed.
func (s *session) close() {
	if s.sw != nil {
		s.sw.Abort()
		s.sw = nil
	}
	if s.jr != nil {
		s.jr.Close()
		s.jr = nil
	}
}

// finish completes a durable session after a successful synthesis the way
// cmd/serd does: publish the streamed dataset, journal its lineage, close
// the ledger and the journal. It returns the stream finalize time.
func (s *session) finish(wallS float64) (finalizeS float64, err error) {
	if s.sw == nil {
		return 0, nil
	}
	t0 := time.Now()
	err = s.sw.Finalize()
	finalizeS = time.Since(t0).Seconds()
	s.sw = nil
	if err != nil {
		return finalizeS, err
	}
	if err := s.jr.Lineage("output", s.outDir); err != nil {
		return finalizeS, err
	}
	s.ledger.Finish()
	s.jr.RunEnd("done", "", nil, wallS)
	err = s.jr.Close()
	s.jr = nil
	return finalizeS, err
}

func readLines(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			out = append(out, line)
		}
	}
	return out, sc.Err()
}
