// Command perfbench is the repository benchmark. It runs one named workload
// from a seed through the program's public Go API, checks every output
// against recorded goldens (or, at a seed without goldens, against the
// run's own first observation and the direct computation of each served
// payload), and prints one JSON result line: end-to-end metrics on an
// untraced run, the per-layer ledger on a traced one. See README.md.
//
// Usage (from the repository root; run.sh builds and invokes it):
//
//	bash perfbench/run.sh --workload emu-migratory --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload serve-mixed --seed 2 --record
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"

	"emuchick/internal/jobserver"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	record   bool
	golden   string // golden directory
	out      string // scratch directory for data dirs and span files
	dirs     *dirs  // fresh server data directories under out
}

// dirs hands out fresh server data directories under a new directory per
// run. Nothing is deleted, neither while the run measures nor after it:
// deleting files slowed the disk's later fsyncs for up to a minute (see
// README.md), so a deletion at the end of one run would slow the served
// rounds of the next. A run leaves about 10 MB; deleting .bench_build
// clears it.
type dirs struct {
	root string
	n    int
}

func newDirs(out string) (*dirs, error) {
	root, err := os.MkdirTemp(out, "run-")
	if err != nil {
		return nil, err
	}
	// Write back the build's and earlier runs' files before measuring.
	syscall.Sync()
	return &dirs{root: root}, nil
}

func (d *dirs) next(kind string) string {
	d.n++
	return filepath.Join(d.root, fmt.Sprintf("%s-%d", kind, d.n))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts operations and logs each failure to stderr.
type tally struct {
	attempted, failed int
	log               io.Writer
}

func (t *tally) op(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		fmt.Fprintln(t.log, "FAIL:", err)
	}
}

func (t *tally) round(r *roundResult) {
	t.attempted += r.attempted
	t.failed += r.failed
	for _, err := range r.errs {
		fmt.Fprintln(t.log, "FAIL:", err)
	}
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var traceFlag int
	fs.StringVar(&cfg.workload, "workload", "", "workload: emu-migratory, sparse-xeon or serve-mixed")
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed every generated input derives from")
	fs.IntVar(&cfg.seconds, "seconds", 20, "measuring time in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1: print the traced per-layer ledger instead of end-to-end metrics")
	fs.BoolVar(&cfg.record, "record", false, "record the goldens of -workload at -seed instead of measuring")
	fs.StringVar(&cfg.golden, "golden", "perfbench/golden", "golden directory")
	fs.StringVar(&cfg.out, "out", ".bench_build/perfbench", "scratch directory (server data dirs, span files)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = traceFlag == 1
	if !slices.Contains(workloadNames, cfg.workload) || (traceFlag != 0 && traceFlag != 1) || cfg.seconds < 1 {
		fmt.Fprintf(stderr, "perfbench: need --workload %v, --trace 0|1, --seconds >= 1\n", workloadNames)
		return 2
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	var err error
	if cfg.dirs, err = newDirs(cfg.out); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	var res *result
	switch {
	case cfg.record:
		err = record(cfg, stderr)
	case cfg.trace:
		res, err = runLedger(cfg, stderr)
	default:
		res, err = runWorkload(cfg, stderr)
	}
	// Write back this run's files, so the next run does not pay for it.
	syscall.Sync()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if res == nil {
		return 0
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

// prepared is a workload ready to run: generated cells, expectations,
// encoded specs and the clients' schedules.
type prepared struct {
	w      *workloadDef
	exp    *expectations
	golden bool
	specs  [][]byte // per cell: the JSON the clients POST (nil for Xeon cells)
	scheds [][]op   // one schedule per client
}

// prepare is the set-up a run needs before its first timed operation:
// load the golden, generate the workload, resolve and validate every spec
// against the registries, and boot the job server once on an empty data
// directory. It returns the set-up time, which ends when that server's
// handler answers /healthz; shutting it down again is not counted.
//
// An untimed boot lays the directory out first. The timed boot then finds
// its subdirectories in place, and set-up time does not include creating
// them: on the shared disk the benchmark was built on, creating them took
// from 0.3 ms to 5 ms within one run, swinging with the disk's state, not
// with the program.
func prepare(cfg config, name string) (*prepared, time.Duration, error) {
	dir := cfg.dirs.next("setup")
	s, err := jobserver.New(jobserver.Config{DataDir: dir, Workers: serverWorkers})
	if err != nil {
		return nil, 0, err
	}
	if err := s.Close(); err != nil {
		return nil, 0, err
	}
	start := time.Now()
	var g *golden
	if !cfg.record {
		if g, err = loadGolden(cfg.golden, name, cfg.seed); err != nil {
			return nil, 0, err
		}
	}
	w, err := buildWorkload(name, cfg.seed)
	if err != nil {
		return nil, 0, err
	}
	exp, err := newExpectations(w, g)
	if err != nil {
		return nil, 0, err
	}
	p := &prepared{w: w, exp: exp, golden: g != nil, specs: make([][]byte, len(w.cells))}
	for i, c := range w.cells {
		if !c.served() {
			continue
		}
		if err := c.spec.Validate(); err != nil {
			return nil, 0, fmt.Errorf("%s: %w", c.name, err)
		}
		if c.spec.Kernel != "" {
			if _, _, _, err := c.spec.KernelPlan(); err != nil {
				return nil, 0, fmt.Errorf("%s: %w", c.name, err)
			}
		}
		if p.specs[i], err = json.Marshal(c.spec); err != nil {
			return nil, 0, err
		}
	}
	for c := 0; c < w.clients; c++ {
		p.scheds = append(p.scheds, buildSchedule(w, c, newRNG(cfg.seed, fmt.Sprintf("%s/client%d", name, c))))
	}
	l, err := boot(dir, nil)
	if err != nil {
		return nil, 0, err
	}
	// The listener accepts connections once boot returns. /healthz is
	// asked of the handler in process: over loopback, the round trip was
	// about a third of the set-up time, and it is goroutine and socket
	// wake-ups, which swing with the host's load, not work of the program.
	rec := httptest.NewRecorder()
	l.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	took := time.Since(start)
	l.close()
	if rec.Code != http.StatusOK {
		return nil, 0, fmt.Errorf("/healthz: %d %s", rec.Code, rec.Body)
	}
	return p, took, nil
}

// setupReps is how many set-ups a run makes; setup_s is their median.
const setupReps = 21

// servedRounds is how many served rounds a run makes. It is fixed rather
// than a share of the run's time: every round leaves up to about 150
// files that are never deleted (see dirs), so a run's disk use stays
// small and the same on any host.
const servedRounds = 16

// minIterations is the fewest direct passes a run makes, however short
// --seconds is.
const minIterations = 3

// spread reports whether the k-th of n events spread evenly over a run of
// length d that started at start is due.
func spread(start time.Time, d time.Duration, k, n int) bool {
	return k < n && time.Since(start) >= d*time.Duration(k)/time.Duration(n)
}

// runWorkload is the untraced run: direct passes until --seconds have
// elapsed, with servedRounds served rounds and setupReps set-ups spread
// evenly over that time (and made at the end if the passes outran them),
// then the end-to-end metrics. Spreading the set-ups makes setup_s sample
// the whole run, not just its first milliseconds. Each timed operation
// starts after a garbage collection, as testing.B's do, so it does not
// share the host's two cores with the collection of the previous one's
// garbage.
func runWorkload(cfg config, log io.Writer) (*result, error) {
	start := time.Now()
	dur := time.Duration(cfg.seconds) * time.Second
	p, took, err := prepare(cfg, cfg.workload)
	if err != nil {
		return nil, err
	}
	setupNs := []float64{float64(took.Nanoseconds())}
	t := &tally{log: log}
	var passNs, allocB, restartNs []float64
	colds := map[int][]float64{} // cold times to result, per cell
	var coldN int
	var loopNs int64
	var loopOps int
	// catchUp makes the set-ups and rounds that are due; with all set, it
	// makes every one that is left.
	catchUp := func(all bool) error {
		for spread(start, dur, len(setupNs), setupReps) || (all && len(setupNs) < setupReps) {
			runtime.GC()
			_, took, err := prepare(cfg, cfg.workload)
			if err != nil {
				return err
			}
			setupNs = append(setupNs, float64(took.Nanoseconds()))
		}
		for spread(start, dur, len(restartNs), servedRounds) || (all && len(restartNs) < servedRounds) {
			runtime.GC()
			r, err := serveRound(p.w, p.scheds, p.specs, p.exp, cfg.dirs.next("serve"), nil, nil)
			if err != nil {
				return err
			}
			t.round(r)
			for i, ms := range r.coldMs {
				colds[r.coldCells[i]] = append(colds[r.coldCells[i]], ms)
			}
			coldN += len(r.coldMs)
			restartNs = append(restartNs, float64(r.restartNs))
			loopNs += r.loopNs
			loopOps += r.loopOps
		}
		return nil
	}
	// Each pass comes before the set-ups and rounds that are due: at a seed
	// without goldens, the first pass gives the payloads the served results
	// are checked against.
	for it := 0; it < minIterations || time.Since(start) < dur; it++ {
		runtime.GC()
		pass := runPass(p.w, false, nil, "")
		for i, out := range pass.outcomes {
			t.op(p.exp.check(i, out))
		}
		passNs = append(passNs, float64(pass.hostNs))
		allocB = append(allocB, float64(pass.allocB))
		if err := catchUp(false); err != nil {
			return nil, err
		}
	}
	if err := catchUp(true); err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "perfbench: %s seed %d (golden: %v): %d set-ups, %d passes, %d rounds, %d jobs, %d cold\n",
		cfg.workload, cfg.seed, p.golden, len(setupNs), len(passNs), len(restartNs), loopOps, coldN)
	m := map[string]metric{
		"setup_s":    {median(setupNs) / 1e9, "s"},
		"sweep_s":    {median(passNs) / 1e9, "s"},
		"alloc_mb":   {median(allocB) / (1 << 20), "MiB"},
		"cold_s":     {coldS(colds), "s"},
		"jobs_per_s": {float64(loopOps) / (float64(loopNs) / 1e9), "1/s"},
		"restart_s":  {median(restartNs) / 1e9, "s"},
	}
	return newResult(t, m)
}

// coldS is the served counterpart of sweep_s: each served cell's median
// cold time to result, summed over the cells. It is a sum of per-cell
// medians, not a percentile over the pooled samples: the cells' times
// differ widely and each is cold once per round, so a pooled percentile
// falls on the boundary between two cells and jumps between their times.
// The heavy cells dominate it, as they dominate a cold sweep; the cost of
// the cold path's writes is in the ledger as exact counts
// (storefs.syncs_per_cold_job) and timings.
func coldS(perCell map[int][]float64) float64 {
	if len(perCell) == 0 {
		return math.NaN()
	}
	var ms float64
	for _, samples := range perCell {
		ms += median(samples)
	}
	return ms / 1e3
}

// newResult refuses a metric without samples rather than print NaN.
func newResult(t *tally, m map[string]metric) (*result, error) {
	for name, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("metric %s has no samples", name)
		}
	}
	return &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
}

// record runs one counted direct pass and one served round of the workload
// at the seed and writes their outputs as the golden. It refuses to write
// when any check fails.
func record(cfg config, log io.Writer) error {
	p, _, err := prepare(cfg, cfg.workload)
	if err != nil {
		return err
	}
	w := p.w
	t := &tally{log: log}
	pass := runPass(w, true, nil, "")
	g := &golden{Workload: cfg.workload, Seed: cfg.seed}
	for i, out := range pass.outcomes {
		t.op(p.exp.check(i, out))
		g.Cells = append(g.Cells, observed(w.cells[i].name, out))
	}
	r, err := serveRound(w, p.scheds, p.specs, p.exp, cfg.dirs.next("record"), nil, nil)
	if err != nil {
		return err
	}
	t.round(r)
	if t.failed > 0 {
		return fmt.Errorf("%d of %d operations failed; golden not written", t.failed, t.attempted)
	}
	return writeGolden(cfg.golden, g)
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile is the nearest-rank percentile (NaN on no samples).
func percentile(xs []float64, pct float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(pct / 100 * float64(len(s))))
	return s[max(rank, 1)-1]
}
