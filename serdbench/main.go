// Command serdbench is the repository's end-to-end and per-layer benchmark
// of the SERD pipeline. For --seconds it repeats calls of one workload:
// each call generates a real dataset from --seed and the call's index,
// performs a user's set-up (load from disk, synthesizers, durable outputs),
// calls core.Synthesize in-process and checks the output. It prints one
// JSON result line. --trace 0 reports the end-to-end metrics from untraced
// calls; --trace 1 pairs each untraced call with a traced one on the same
// seed and reports the per-layer metrics. See README.md for the workloads,
// metrics and measured spread.
//
//	serdbench --workload dblp-rejection --seed 1 --seconds 38 --trace 0
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"syscall"
	"time"

	"serd/internal/core"
	"serd/internal/dataset"
	"serd/internal/generator"
	"serd/internal/journal"
	"serd/internal/telemetry"
)

const (
	// setupReps set-up-only repetitions run before the measured calls
	// and again after each untraced one; every call's own set-up adds one more
	// sample. setup_s is the median of all of them: one set-up takes
	// milliseconds, too short to read steadily on its own, and spreading
	// the samples over the whole run keeps a momentary load on the
	// machine from deciding the figure.
	setupReps = 8
	// minCalls is the fewest untraced calls a run makes, whatever
	// --seconds says, so every end-to-end median has at least 3 samples.
	minCalls = 3
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "serdbench:", err)
		os.Exit(1)
	}
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workDir  string
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	var c config
	var trace int
	fs := flag.NewFlagSet("serdbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&c.workload, "workload", "", "workload name")
	fs.Int64Var(&c.seed, "seed", 1, "input and synthesis seed")
	fs.Float64Var(&c.seconds, "seconds", 20, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from traced runs, 0 end-to-end metrics")
	fs.StringVar(&c.workDir, "work", filepath.Join(".bench_build", "work"), "scratch directory for inputs and outputs")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	if fs.NArg() > 0 {
		return c, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if trace != 0 && trace != 1 {
		return c, fmt.Errorf("--trace %d: want 0 or 1", trace)
	}
	if c.seconds <= 0 {
		return c, fmt.Errorf("--seconds %g: want > 0", c.seconds)
	}
	c.trace = trace == 1
	return c, nil
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) error {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		return err
	}
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(cfg.workDir, w.name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	b := &bench{w: w, seed: cfg.seed, work: work, log: stderr, inDir: filepath.Join(work, "input")}
	if err := w.writeInput(b.inDir, cfg.seed); err != nil {
		return fmt.Errorf("generating input: %w", err)
	}
	if err := b.setupOnly(); err != nil {
		return err
	}
	var res *result
	if cfg.trace {
		res, err = b.traced(cfg.seconds)
	} else {
		res, err = b.untraced(cfg.seconds)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// bench runs one workload's calls inside the work directory.
type bench struct {
	w    workload
	seed int64
	work string
	// inDir is the input of the set-up-only repetitions; each call
	// generates its own.
	inDir string
	log   io.Writer

	setupS []float64
	runs   int
}

// callSeed seeds the n-th call's input and synthesis: every call of a run
// is an independent draw of both, so a run's medians average over input
// and synthesis randomness instead of repeating one draw.
func (b *bench) callSeed(n int) int64 { return b.seed*1000 + int64(n) }

// runDir is a fresh per-session directory for durable outputs.
func (b *bench) runDir() string {
	b.runs++
	return filepath.Join(b.work, fmt.Sprintf("run-%d", b.runs))
}

// openTimed opens a session on inDir and records its set-up time.
func (b *bench) openTimed(inDir, dir string, seed int64) (*session, error) {
	// A user's set-up runs in a fresh process; starting every sample from
	// a collected heap keeps earlier calls' garbage out of its timing.
	runtime.GC()
	t0 := time.Now()
	s, err := b.w.open(inDir, dir, seed)
	if err != nil {
		return nil, err
	}
	b.setupS = append(b.setupS, time.Since(t0).Seconds())
	return s, nil
}

// setupOnly performs and discards setupReps set-ups.
func (b *bench) setupOnly() error {
	for i := 0; i < setupReps; i++ {
		dir := b.runDir()
		s, err := b.openTimed(b.inDir, dir, b.seed)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		s.close()
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	return nil
}

// call is one synthesis call's outcome.
type call struct {
	wallS, allocMB, jsd float64
	peakRSSMB           float64
	// entities is |A|+|B|; candidates adds the rejected candidates,
	// so it counts every entity S2 synthesized.
	entities, candidates int
	cpuS                 float64
	gcCycles             uint32
	gcPauseS             float64
	mallocs              uint64
	finalizeS            float64
	sha                  string

	// Traced calls only.
	rec        *recorder
	dist       *distCounters
	synth      *busy
	s3EndToRet float64
	journal    struct{ events, bytes int }
	verifyS    float64
	res        *core.Result
	syn        *dataset.ER
}

// synthesize runs one call with the given seed, traced or not, and checks
// its output. A failed check returns the call with a non-nil error.
func (b *bench) synthesize(seed int64, traced bool) (*call, error) {
	dir := b.runDir()
	defer os.RemoveAll(dir)
	inDir := filepath.Join(dir, "input")
	if err := b.w.writeInput(inDir, seed); err != nil {
		return nil, fmt.Errorf("generating input: %w", err)
	}
	s, err := b.openTimed(inDir, dir, seed)
	if err != nil {
		return nil, err
	}
	defer s.close()
	w := b.w
	opts := core.Options{
		Synthesizers:     s.synths,
		DisableRejection: !w.rejection,
		S3Blocker:        w.blocker(),
		Generator:        w.generator(),
		Privacy:          s.ledger,
		Journal:          s.jr,
		Checkpoint:       s.cp,
		Stream:           s.sw,
		Seed:             seed,
	}
	c := &call{}
	var inner telemetry.Recorder
	if traced {
		c.rec = newRecorder()
		c.dist = &distCounters{}
		c.synth = &busy{}
		inner = c.rec
		gen := opts.Generator
		if gen == nil {
			// The explicit gmm backend is byte-identical to the default
			// path; wrapping it is what exposes the default path's Dist.
			gen = generator.GMM{}
		}
		opts.Generator = countingGen{inner: gen, c: c.dist}
		opts.Synthesizers = countSynths(s.synths, c.synth)
		if s.cp != nil {
			s.cp.Metrics = c.rec
		}
	}
	// cmd/serd's recorder chain: the journal mirrors phase spans.
	opts.Metrics = journal.Instrument(s.jr, inner)

	resetPeakRSS()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	t0 := time.Now()
	res, err := core.Synthesize(context.Background(), s.real, opts)
	ret := time.Now()
	c.wallS = ret.Sub(t0).Seconds()
	c.cpuS = cpuSeconds() - cpu0
	c.peakRSSMB = peakRSSMB()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, fmt.Errorf("synthesize: %w", err)
	}
	c.res, c.syn = res, res.Syn
	c.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	c.mallocs = m1.Mallocs - m0.Mallocs
	c.gcCycles = m1.NumGC - m0.NumGC
	c.gcPauseS = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e9
	c.entities = res.Syn.A.Len() + res.Syn.B.Len()
	c.candidates = c.entities + res.RejectedByDistribution + res.RejectedByDiscriminator
	c.jsd = res.JSD
	if traced {
		c.s3EndToRet = ret.Sub(c.rec.spanEnd("core.s3")).Seconds()
	}
	if c.finalizeS, err = s.finish(c.wallS); err != nil {
		return c, fmt.Errorf("finishing durable output: %w", err)
	}
	files, sha, err := datasetHashes(res.Syn)
	if err != nil {
		return c, err
	}
	c.sha = sha
	fmt.Fprintf(b.log, "call seed=%d traced=%v: %.3fs (%.3f CPU s), %d entities, %d candidates, %.1f MiB allocated, %.1f MiB peak RSS, jsd %.4f\n",
		seed, traced, c.wallS, c.cpuS, c.entities, c.candidates, c.allocMB, c.peakRSSMB, c.jsd)
	if err := b.check(s, res, files); err != nil {
		return c, err
	}
	if traced && w.durable {
		st, err := os.Stat(s.journalPath)
		if err != nil {
			return c, err
		}
		evs, err := journal.Read(s.journalPath)
		if err != nil {
			return c, err
		}
		c.journal.events, c.journal.bytes = len(evs), int(st.Size())
		c.verifyS, err = medianOf(3, func() error {
			_, err := journal.Verify(s.journalPath, "")
			return err
		})
		if err != nil {
			return c, err
		}
	}
	return c, nil
}

// check applies the correctness checks every call must pass.
func (b *bench) check(s *session, res *core.Result, files map[string]string) error {
	w := b.w
	syn := res.Syn
	if syn.A.Len() != s.real.A.Len() || syn.B.Len() != s.real.B.Len() {
		return fmt.Errorf("synthesized %d×%d entities, target %d×%d", syn.A.Len(), syn.B.Len(), s.real.A.Len(), s.real.B.Len())
	}
	if errs := dataset.Validate(syn); len(errs) > 0 {
		return fmt.Errorf("synthesized dataset invalid: %w", errors.Join(errs...))
	}
	if w.rejection && res.RejectedByDistribution == 0 {
		// Rejection never activated, so a JSD of 0 would be the "O_syn
		// never estimable" sentinel, not a perfect score.
		return errors.New("§V distribution rejection never rejected a candidate")
	}
	if !w.durable {
		return nil
	}
	vr, err := journal.Verify(s.journalPath, "")
	if err != nil {
		return fmt.Errorf("audit verify: %w", err)
	}
	if !vr.OK() {
		return fmt.Errorf("audit verify: %v", vr.Problems)
	}
	if spent, _ := s.ledger.Total(); math.Abs(spent-w.epsilon) > 1e-9 {
		return fmt.Errorf("ledger spent ε=%.12g, requested %g", spent, w.epsilon)
	}
	onDisk, _, err := journal.HashDataset(s.outDir)
	if err != nil {
		return err
	}
	for name, h := range files {
		if onDisk[name] != h {
			return fmt.Errorf("streamed %s differs from the returned dataset", name)
		}
	}
	return nil
}

// datasetHashes serializes the dataset as dataset.SaveDir would and
// returns each file's SHA-256 plus one combined hash.
func datasetHashes(e *dataset.ER) (map[string]string, string, error) {
	files := map[string]func(io.Writer) error{
		"A.csv":       func(w io.Writer) error { return dataset.WriteRelation(w, e.A) },
		"B.csv":       func(w io.Writer) error { return dataset.WriteRelation(w, e.B) },
		"matches.csv": func(w io.Writer) error { return dataset.WriteMatches(w, e) },
	}
	out := make(map[string]string, len(files))
	for name, write := range files {
		h := sha256.New()
		if err := write(h); err != nil {
			return nil, "", err
		}
		out[name] = hex.EncodeToString(h.Sum(nil))
	}
	return out, journal.CombineHashes(out), nil
}

// untraced measures the end-to-end metrics: untraced calls, each on its
// own seed, until the next call would overrun the run's seconds.
func (b *bench) untraced(seconds float64) (*result, error) {
	res := &result{}
	var rates, allocs, rss []float64
	start := time.Now()
	for n := 0; ; n++ {
		if n >= minCalls && !fits(start, seconds, n) {
			break
		}
		res.Attempted++
		c, err := b.synthesize(b.callSeed(n), false)
		if err != nil {
			res.Failed++
			fmt.Fprintf(b.log, "call %d: %v\n", n, err)
		} else {
			rates = append(rates, float64(c.candidates)/c.cpuS)
			allocs = append(allocs, c.allocMB*1024/float64(c.candidates))
			rss = append(rss, c.peakRSSMB)
		}
		if err := b.setupOnly(); err != nil {
			return nil, err
		}
	}
	res.Correct = res.Failed == 0
	var err error
	res.Metrics, err = emit(endToEnd, map[string]float64{
		"candidates_per_cpu_s":    median(rates),
		"alloc_kib_per_candidate": median(allocs),
		"peak_rss_mb":             median(rss),
		"setup_s":                 median(b.setupS),
	})
	return res, err
}

// fits reports whether one more call, at the mean duration of the n made
// so far, still ends within the run's seconds.
func fits(start time.Time, seconds float64, n int) bool {
	elapsed := time.Since(start).Seconds()
	return elapsed+elapsed/float64(n) <= seconds
}

// median of xs, 0 when there are none (every call failed; the failure
// count says so, and JSON has no NaN).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// medianOf times fn n times and returns the median seconds.
func medianOf(n int, fn func() error) (float64, error) {
	ts := make([]float64, n)
	for i := range ts {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ts[i] = time.Since(t0).Seconds()
	}
	return median(ts), nil
}

// resetPeakRSS collects garbage, returns free memory to the OS and resets
// the process's VmHWM to its current RSS, so the next peakRSSMB reads the
// peak of one call rather than of the whole process history. Where the
// reset is not permitted, VmHWM stays cumulative.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is VmHWM in MiB, 0 where it cannot be read.
func peakRSSMB() float64 {
	rss, _ := telemetry.ReadPeakRSS()
	return float64(rss) / (1 << 20)
}

// cpuSeconds is the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
