package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"autosec/internal/campaign"
	"autosec/internal/core"
	"autosec/internal/scenario"
	"autosec/internal/sim"
)

// recheck is the determinism self-check fraction of every campaign: the
// default of `avsec campaign`, `avsec fleet` and the daemon.
const recheck = 0.25

// workload is one set of inputs the benchmark runs. Every workload
// alternates a cold campaign over a fresh seed run with a warm campaign
// that replays the same grid exactly; only the program path differs.
type workload struct {
	name string
	// seedsPerCampaign is the length of each campaign's seed run.
	seedsPerCampaign int
	setup            func(o *options, tr *tracer) (env, error)
}

// workloads lists the benchmark's workloads; BENCHMARK.json records
// why each was chosen and which layers it exercises and bypasses:
//
//   - registry-campaign is PHY-bound (NormFill, UWB correlator) and
//     exp-ca sets its straggler tail;
//   - corpus-campaign runs ~1 ms scenario cells with no UWB work, so
//     per-cell campaign/core overhead and allocation show;
//   - fleet-cache is the only workload through server, resultcache and
//     fleet: cold campaigns write the cache, warm replays only read it.
var workloads = []*workload{
	{
		name:             "registry-campaign",
		seedsPerCampaign: 1,
		setup:            func(o *options, tr *tracer) (env, error) { return setupCampaign(o, tr, false) },
	},
	{
		name:             "corpus-campaign",
		seedsPerCampaign: 1,
		setup:            func(o *options, tr *tracer) (env, error) { return setupCampaign(o, tr, true) },
	},
	{
		name:             "fleet-cache",
		seedsPerCampaign: 2,
		setup:            setupFleet,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// options configures one benchmark run.
type options struct {
	root    string        // checkout root: scenarios/ and the golden files
	scratch string        // run-private directory for result caches
	seed    int64         // workload seed: selects the seed schedule
	window  time.Duration // measure cold/warm pairs until this much time has passed...
	pairs   int           // ...or exactly this many pairs when > 0
	jobs    int           // campaign workers (at most nproc)
	setups  int           // set-up repetitions; setup_s is their median
}

func (o *options) scenarioDir() string { return filepath.Join(o.root, "scenarios") }

// grid is one campaign's input: the program sees nothing else.
type grid struct {
	ids   []string
	seeds []int64
}

func (g grid) cells() int { return len(g.ids) * len(g.seeds) }

// schedule derives the cold campaigns' seed runs from the workload seed:
// campaign k runs n consecutive seeds from base+k·n, so no two cold grids
// of one run share a cell and a warm replay is the only reuse.
type schedule struct {
	base int64
	n    int
}

func newSchedule(seed int64, n int) schedule {
	x := uint64(seed) + 0x9E3779B97F4A7C15 // splitmix64 finaliser
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	x ^= x >> 31
	return schedule{base: int64(x>>24) + 1, n: n}
}

func (s schedule) seeds(k int) []int64 { return campaign.Seeds(s.base+int64(k*s.n), s.n) }

// outcome is one campaign as its user sees it.
type outcome struct {
	wall    time.Duration // run plus summary rendering
	cells   int           // primary grid cells
	failed  int           // cell errors + recheck divergences (+1 for a failed fleet campaign)
	summary string
	err     error
}

// env is a set-up workload, ready to run campaigns.
type env interface {
	ids() []string
	// gate runs the workload's correctness gate outside the timed
	// window. It may return the summary the first cold campaign over
	// first must render.
	gate(first grid) (want string, err error)
	// run executes one campaign over g; phase is "cold" or "warm".
	run(g grid, phase string, tr *tracer) outcome
	close() error
}

// gauge tracks the current and the highest number of concurrent users
// of a resource: cells in flight or open client connections.
type gauge struct{ cur, max atomic.Int64 }

func (g *gauge) enter() {
	n := g.cur.Add(1)
	for {
		m := g.max.Load()
		if n <= m || g.max.CompareAndSwap(m, n) {
			return
		}
	}
}

func (g *gauge) leave() { g.cur.Add(-1) }

// compileCorpus is the set-up step every workload shares with `avsec
// campaign`: compile the committed scenario corpus.
func compileCorpus(o *options, tr *tracer, parent int32) ([]core.Experiment, error) {
	sp := tr.start(layerScenario, "scenario.CompileDir", parent)
	exps, err := scenario.CompileDir(o.scenarioDir())
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	if len(exps) == 0 {
		return nil, fmt.Errorf("no scenarios under %s", o.scenarioDir())
	}
	return exps, nil
}

// campaignEnv runs campaigns in process through campaign.Run, exactly
// as `avsec campaign` does: RunTyped → core.RunResultOf on one shared
// worker pool, longest-first by Experiment.Cost.
type campaignEnv struct {
	corpus bool
	root   string
	jobs   int
	pool   *sim.WorkerPool
	byID   map[string]core.Experiment
	idList []string
	cells  gauge // cells in flight, checked against jobs
}

func setupCampaign(o *options, tr *tracer, corpus bool) (env, error) {
	sp := tr.start(layerSetup, "setup", 0)
	defer tr.end(sp)
	scns, err := compileCorpus(o, tr, sp)
	if err != nil {
		return nil, err
	}
	e := &campaignEnv{corpus: corpus, root: o.root, jobs: o.jobs, byID: make(map[string]core.Experiment)}
	for _, x := range core.Experiments() {
		e.byID[x.ID] = x
		if !corpus {
			e.idList = append(e.idList, x.ID)
		}
	}
	for _, x := range scns {
		e.byID[x.ID] = x
		if corpus {
			e.idList = append(e.idList, x.ID)
		}
	}
	e.pool = sim.NewWorkerPool(o.jobs)
	return e, nil
}

func (e *campaignEnv) ids() []string { return e.idList }

func (e *campaignEnv) close() error { return nil }

func (e *campaignEnv) costHint(id string) int { return e.byID[id].Cost }

// runTyped is the campaign's cell function; with a tracer it records one
// core span per core.RunResultOf call under the campaign span.
func (e *campaignEnv) runTyped(tr *tracer, parent int32) campaign.TypedRunFunc {
	return func(id string, seed int64) (string, []sim.Metric, error) {
		e.cells.enter()
		defer e.cells.leave()
		sp := tr.startLabeled(layerCore, "core.RunResultOf", id, seed, parent)
		r, err := core.RunResultOf(e.byID[id], seed, core.RunOptions{Pool: e.pool})
		tr.end(sp)
		if err != nil {
			return "", nil, err
		}
		return r.Report, r.Metrics, nil
	}
}

func (e *campaignEnv) spec(g grid, rc float64, tr *tracer, parent int32) campaign.Spec {
	return campaign.Spec{
		IDs:      g.ids,
		Seeds:    g.seeds,
		Jobs:     e.jobs,
		Pool:     e.pool,
		Recheck:  rc,
		RunTyped: e.runTyped(tr, parent),
		CostHint: e.costHint,
	}
}

func (e *campaignEnv) run(g grid, phase string, tr *tracer) outcome {
	sp := tr.startLabeled(layerCampaign, "campaign.Run", phase, 0, 0)
	t0 := time.Now()
	res, err := campaign.Run(e.spec(g, recheck, tr, sp))
	tr.end(sp)
	out := outcome{cells: g.cells(), err: err}
	if res == nil {
		out.failed = out.cells
		out.wall = time.Since(t0)
		return out
	}
	rs := tr.startLabeled(layerCampaign, "RenderSummary", phase, 0, 0)
	out.summary = res.RenderSummary()
	tr.end(rs)
	out.wall = time.Since(t0)
	for i := range res.Cells {
		if res.Cells[i].Err != nil {
			out.failed++
		}
	}
	out.failed += res.Divergences()
	return out
}

// gate checks the workload's golden output: the registry at seed 42
// rendered as `avsec all` prints it, or the corpus at seeds 42 and 43
// rendered as `avsec campaign -corpus -seeds 2 -seed 42` prints it.
func (e *campaignEnv) gate(grid) (string, error) {
	if e.corpus {
		res, err := campaign.Run(e.spec(grid{ids: e.idList, seeds: []int64{42, 43}}, recheck, nil, 0))
		if err != nil {
			return "", fmt.Errorf("corpus gate: %w", err)
		}
		return "", compareGolden(filepath.Join(e.root, "scenarios", "GOLDEN.campaign.txt"), res.RenderSummary())
	}
	var b strings.Builder
	spec := e.spec(grid{ids: e.idList, seeds: []int64{42}}, 0, nil, 0)
	spec.OnCell = func(c campaign.CellResult) {
		x := e.byID[c.ID]
		fmt.Fprintf(&b, "═══ %s (%s) — %s ═══\n", x.ID, x.Source, x.Title)
		if c.Err == nil {
			b.WriteString(c.Report)
			b.WriteByte('\n')
		}
	}
	if _, err := campaign.Run(spec); err != nil {
		return "", fmt.Errorf("registry gate: %w", err)
	}
	return "", compareGolden(filepath.Join(e.root, "experiments_output.txt"), b.String())
}

// compareGolden fails unless got is byte-equal to the file at path.
func compareGolden(path, got string) error {
	want, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("golden: %w", err)
	}
	return sameBytes(path, string(want), got)
}

// sameBytes names the first differing byte of two renderings.
func sameBytes(what, want, got string) error {
	if want == got {
		return nil
	}
	off := 0
	for off < len(want) && off < len(got) && want[off] == got[off] {
		off++
	}
	return fmt.Errorf("%s: output differs at byte %d (want %d bytes, got %d): %q",
		what, off, len(want), len(got), got[off:min(off+40, len(got))])
}
