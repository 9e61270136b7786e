package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"time"

	"autosec/internal/fleet"
	"autosec/internal/resultcache"
	"autosec/internal/scenario"
)

// metric is one reported number with its unit and sample count.
type metric struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// phase is one measured stretch of a run: set-up, then cold/warm
// campaign pairs until the window closes.
type phase struct {
	setups     []time.Duration
	cold, warm []time.Duration
	cells      int       // primary cells of the measured campaigns
	failed     int       // failed cells, divergences and failed campaigns
	pairRates  []float64 // cells per second of each cold/warm pair
	alloc      uint64    // bytes allocated in the window
	mallocs    uint64
	gcFrac     float64
	digests    []string // sha256 of each cold campaign's summary
	errs       []error  // failed correctness checks

	// fleet-cache only
	fleet        fleet.Stats
	cache        resultcache.Stats // GET /api/v1/cache deltas over the window
	cacheEntries int               // distinct entries on disk after the window
	maxConns     int64

	maxCells int64 // in-process campaigns only

	// traced phases only
	spans            []span
	winStart, winEnd time.Duration // window bounds on the tracer's clock
	kinds            map[string]string
	heapPeak         uint64
	cacheGetUS       []float64
	cachePutUS       []float64
	probes           []metric
}

func (p *phase) campaigns() int { return len(p.cold) + len(p.warm) }

// setupWarmups is the number of untimed set-ups before the timed ones.
const setupWarmups = 3

// measure sets the workload up o.setups times, runs its correctness gate
// when asked, then measures cold/warm pairs. With traced set, spans are
// recorded and the per-layer probes run after the window.
func measure(w *workload, o *options, traced, gates bool) (*phase, error) {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	p := &phase{}
	var e env
	// The first set-ups of a process run slower while its heap grows, so
	// they are not timed; each timed one starts from a collected heap.
	for i := 0; i < setupWarmups+o.setups; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		e, err = w.setup(o, tr)
		if i >= setupWarmups {
			p.setups = append(p.setups, time.Since(t0))
		}
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
	}
	defer e.close()
	fe, _ := e.(*fleetEnv)
	sched := newSchedule(o.seed, w.seedsPerCampaign)

	var want string
	if gates {
		var err error
		if want, err = e.gate(grid{ids: e.ids(), seeds: sched.seeds(0)}); err != nil {
			p.errs = append(p.errs, err)
		}
	}
	if traced {
		var err error
		if p.kinds, err = specKinds(o); err != nil {
			return nil, err
		}
	}

	var stats0 resultcache.Stats
	if fe != nil {
		var err error
		if stats0, err = fe.cacheStats(); err != nil {
			return nil, err
		}
	}
	last := stats0
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0, cpu0 := gcCPU()
	start := time.Now()
	p.winStart = tr.now()
	for k := 0; ; k++ {
		g := grid{ids: e.ids(), seeds: sched.seeds(k)}
		cold := e.run(g, "cold", tr)
		var afterCold resultcache.Stats
		if fe != nil {
			var err error
			if afterCold, err = fe.cacheStats(); err != nil {
				return nil, err
			}
		}
		warm := e.run(g, "warm", tr)
		if fe != nil {
			st, err := fe.cacheStats()
			if err != nil {
				return nil, err
			}
			if err := checkWarm(statsDelta(afterCold, st)); err != nil {
				p.errs = append(p.errs, fmt.Errorf("warm campaign %d: %w", k, err))
			}
			last = st
		}
		p.pairRates = append(p.pairRates, float64(cold.cells+warm.cells)/(cold.wall+warm.wall).Seconds())
		for _, c := range []outcome{cold, warm} {
			p.cells += c.cells
			p.failed += c.failed
			if c.err != nil {
				p.errs = append(p.errs, c.err)
			}
		}
		p.cold = append(p.cold, cold.wall)
		p.warm = append(p.warm, warm.wall)
		sum := sha256.Sum256([]byte(cold.summary))
		p.digests = append(p.digests, hex.EncodeToString(sum[:]))
		if err := sameBytes(fmt.Sprintf("warm replay of campaign %d", k), cold.summary, warm.summary); err != nil {
			p.errs = append(p.errs, err)
		}
		if k == 0 && want != "" {
			if err := sameBytes("first cold campaign vs in-process campaign.Run", want, cold.summary); err != nil {
				p.errs = append(p.errs, err)
			}
		}
		if o.pairs > 0 {
			if k+1 >= o.pairs {
				break
			}
		} else if time.Since(start) >= o.window {
			break
		}
	}
	p.winEnd = tr.now()
	gc1, cpu1 := gcCPU()
	runtime.ReadMemStats(&m1)
	p.alloc = m1.TotalAlloc - m0.TotalAlloc
	p.mallocs = m1.Mallocs - m0.Mallocs
	if cpu1 > cpu0 {
		p.gcFrac = (gc1 - gc0) / (cpu1 - cpu0)
	}

	switch x := e.(type) {
	case *campaignEnv:
		p.maxCells = x.cells.max.Load()
		if p.maxCells > int64(o.jobs) {
			p.errs = append(p.errs, fmt.Errorf("load generation ran %d cells at once, over the %d-worker budget", p.maxCells, o.jobs))
		}
	case *fleetEnv:
		p.fleet = x.stats
		p.cache = statsDelta(stats0, last)
		p.maxConns = x.conns.max.Load()
		if p.maxConns > maxConns {
			p.errs = append(p.errs, fmt.Errorf("load generation opened %d connections at once, over the budget of %d", p.maxConns, maxConns))
		}
		c, err := resultcache.New(x.cacheDir)
		if err != nil {
			return nil, err
		}
		keys, err := c.Entries()
		if err != nil {
			return nil, err
		}
		p.cacheEntries = len(keys)
		if traced {
			if p.cacheGetUS, p.cachePutUS, err = probeCache(c, keys, o.scratch); err != nil {
				return nil, err
			}
		}
	}
	if traced {
		probes, err := runProbes(tr)
		if err != nil {
			return nil, err
		}
		p.probes = probes
		p.heapPeak = tr.heapPeak.Load()
		p.spans = tr.snapshot()
	}
	return p, nil
}

// specKinds maps each scenario id to its spec kind: "killchain" for
// kill-chain specs, "traffic" for the rest.
func specKinds(o *options) (map[string]string, error) {
	kinds := make(map[string]string)
	specs, err := scenario.LoadDir(o.scenarioDir())
	if err != nil {
		return nil, fmt.Errorf("spec kinds: %w", err)
	}
	for _, sp := range specs {
		k := "traffic"
		if sp.Attacker.Type == scenario.AttackKillChain {
			k = "killchain"
		}
		kinds[scenario.IDPrefix+sp.Name] = k
	}
	return kinds, nil
}

// gcCPU reads the runtime's cumulative GC and total CPU seconds.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return floatValue(s[0]), floatValue(s[1])
}

func floatValue(s metrics.Sample) float64 {
	if s.Value.Kind() == metrics.KindFloat64 {
		return s.Value.Float64()
	}
	return 0
}

// endToEnd computes the end-to-end metrics of a phase. cells_per_s is
// the median over cold/warm pairs, so one slow stretch of a run moves it
// less than a mean over the window would.
func (p *phase) endToEnd() []metric {
	secs := make([]float64, len(p.setups))
	for i, d := range p.setups {
		secs[i] = d.Seconds()
	}
	cold, warm := msSlice(p.cold), msSlice(p.warm)
	var alloc float64
	if p.cells > 0 {
		alloc = float64(p.alloc) / 1024 / float64(p.cells)
	}
	return []metric{
		{"setup_s", median(secs), "s", len(secs)},
		{"cells_per_s", median(p.pairRates), "1/s", len(p.pairRates)},
		{"alloc_kb_per_cell", alloc, "KiB", p.cells},
		{"cold_campaign_ms.p50", quantile(cold, 0.50), "ms", len(cold)},
		{"cold_campaign_ms.p90", quantile(cold, 0.90), "ms", len(cold)},
		{"warm_campaign_ms.p50", quantile(warm, 0.50), "ms", len(warm)},
		{"warm_campaign_ms.p90", quantile(warm, 0.90), "ms", len(warm)},
	}
}

func msSlice(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// errorRate is (cell errors + divergences + failed campaigns) ÷ cells attempted.
func (p *phase) errorRate() float64 {
	if p.cells == 0 {
		return 1
	}
	return float64(p.failed) / float64(p.cells)
}

func removeAll(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
}
