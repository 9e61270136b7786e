package main

import (
	"fmt"
	"os"
	"sort"
	"time"

	"autosec/internal/resultcache"
	"autosec/internal/secchan"
	"autosec/internal/secchan/suites"
	"autosec/internal/sensor"
	"autosec/internal/sim"
	"autosec/internal/uwb"
)

// registryCellIDs are the registry experiments whose cell times are
// reported on their own: the slowest ones, which set cells_per_s on the
// registry workload.
var registryCellIDs = []string{"exp-ca", "fig2", "ablate-sts", "fig8", "fig9", "ablate-mac"}

// perLayer computes the per-layer metrics of a traced phase. untraced is
// the same workload measured with tracing off, for the tracing overhead.
// A layer the workload does not exercise reports 0 with 0 samples.
func perLayer(p, untraced *phase, jobs int) []metric {
	var out []metric
	add := func(name string, v float64, unit string, n int) {
		out = append(out, metric{Name: name, Value: v, Unit: unit, Samples: n})
	}
	var win []span
	for _, s := range p.spans {
		if s.Start >= p.winStart && s.End <= p.winEnd {
			win = append(win, s)
		}
	}
	self := selfTimes(win)

	// campaign: cell occupancy of the in-process campaigns.
	kids := make(map[int32][]*span)
	var cellMS []float64
	byExp := make(map[string][]float64)
	for i := range win {
		s := &win[i]
		if s.Layer == layerCore {
			kids[s.Parent] = append(kids[s.Parent], s)
			d := ms(s.dur())
			cellMS = append(cellMS, d)
			byExp[s.Label] = append(byExp[s.Label], d)
			if k := p.kinds[s.Label]; k != "" {
				byExp[k] = append(byExp[k], d)
			}
		}
	}
	var busy, capacity, idle time.Duration
	var tails []float64
	primary := 0
	for i := range win {
		c := &win[i]
		if c.Layer != layerCampaign || c.Name != "campaign.Run" {
			continue
		}
		var b time.Duration
		type task struct{ start, end time.Duration }
		tasks := make(map[string]*task)
		for _, k := range kids[c.ID] {
			b += k.dur()
			key := fmt.Sprintf("%s/%d", k.Label, k.Seed)
			t := tasks[key]
			if t == nil {
				tasks[key] = &task{k.Start, k.End}
				continue
			}
			if k.Start < t.start {
				t.start = k.Start
			}
			if k.End > t.end {
				t.end = k.End
			}
		}
		busy += b
		capacity += time.Duration(jobs) * c.dur()
		idle += time.Duration(jobs)*c.dur() - b
		primary += len(tasks)
		// The queue is empty once the last task has started; the tail
		// runs from the first task to end after that to the campaign end.
		var lastStart time.Duration
		for _, t := range tasks {
			if t.start > lastStart {
				lastStart = t.start
			}
		}
		tailStart := c.End
		for _, t := range tasks {
			if t.end > lastStart && t.end < tailStart {
				tailStart = t.end
			}
		}
		if len(tasks) > 0 {
			tails = append(tails, ms(c.End-tailStart))
		}
	}
	frac := 0.0
	if capacity > 0 {
		frac = float64(busy) / float64(capacity)
	}
	add("campaign.busy_frac", frac, "ratio", len(tails))
	add("campaign.tail_ms", median(tails), "ms", len(tails))
	idleUS := 0.0
	if primary > 0 {
		idleUS = us(idle) / float64(primary)
	}
	add("campaign.idle_us_per_cell", idleUS, "us", primary)

	// core: one span per core.RunResultOf call.
	add("core.cell_ms.p50", quantile(cellMS, 0.50), "ms", len(cellMS))
	add("core.cell_ms.p95", quantile(cellMS, 0.95), "ms", len(cellMS))
	for _, id := range append(append([]string(nil), registryCellIDs...), "traffic", "killchain") {
		add("core.cell_ms."+id+".p50", median(byExp[id]), "ms", len(byExp[id]))
	}

	// scenario: corpus compile inside each traced set-up.
	var compile []float64
	for _, s := range p.spans {
		if s.Layer == layerScenario {
			compile = append(compile, ms(s.dur()))
		}
	}
	add("scenario.compile_ms", median(compile), "ms", len(compile))

	out = append(out, p.probes...)

	// server: one span per request served in a cold or warm campaign.
	req := map[string][]float64{}
	for _, s := range win {
		if s.Layer == layerServer && (s.Label == "cold" || s.Label == "warm") {
			req[s.Label] = append(req[s.Label], ms(s.dur()))
		}
	}
	for _, ph := range []string{"cold", "warm"} {
		add("server."+ph+"_request_ms.p50", quantile(req[ph], 0.50), "ms", len(req[ph]))
		add("server."+ph+"_request_ms.p99", quantile(req[ph], 0.99), "ms", len(req[ph]))
	}
	nreq := len(req["cold"]) + len(req["warm"])
	add("server.requests", float64(nreq), "count", nreq)

	// resultcache: counter deltas and Get/Put of the run's own entries.
	add("resultcache.hits", float64(p.cache.Hits), "count", 1)
	add("resultcache.misses", float64(p.cache.Misses), "count", 1)
	add("resultcache.stores", float64(p.cache.Stores), "count", 1)
	add("resultcache.corrupt", float64(p.cache.Corrupt), "count", 1)
	add("resultcache.get_us.p50", median(p.cacheGetUS), "us", len(p.cacheGetUS))
	add("resultcache.put_us.p50", median(p.cachePutUS), "us", len(p.cachePutUS))

	// fleet: coordinator self time (fleet.Run minus its server requests)
	// and scheduling counters.
	var fleetSelf []float64
	for i := range win {
		if win[i].Layer == layerFleet && win[i].Name == "fleet.Run" {
			fleetSelf = append(fleetSelf, ms(self[i]))
		}
	}
	add("fleet.self_ms.p50", median(fleetSelf), "ms", len(fleetSelf))
	st := p.fleet
	add("fleet.dispatches", float64(st.Dispatches), "count", 1)
	add("fleet.redispatches", float64(st.Redispatches), "count", 1)
	add("fleet.steals", float64(st.Steals), "count", 1)
	add("fleet.duplicates", float64(st.Duplicates), "count", 1)
	// A duplicate delivery is a cell computed twice for nothing.
	useful := 0.0
	if st.Cells > 0 {
		useful = float64(st.Cells) / float64(st.Cells+st.Duplicates)
	}
	add("fleet.useful_frac", useful, "ratio", st.Cells+st.Duplicates)

	// Go runtime over the measured window.
	add("runtime.gc_cpu_frac", p.gcFrac, "ratio", 1)
	mallocs := 0.0
	if p.cells > 0 {
		mallocs = float64(p.mallocs) / float64(p.cells)
	}
	add("runtime.mallocs_per_cell", mallocs, "count", p.cells)
	add("runtime.heap_peak_mb", float64(p.heapPeak)/(1<<20), "MiB", len(p.spans))

	// Self time per layer, per campaign of the window; the cache-counter
	// reads between campaigns are the benchmark's own.
	selfBy := map[string]time.Duration{}
	for i := range win {
		if win[i].Label != "control" {
			selfBy[win[i].Layer] += self[i]
		}
	}
	for _, l := range []string{layerCampaign, layerCore, layerFleet, layerServer} {
		v := 0.0
		if n := p.campaigns(); n > 0 {
			v = ms(selfBy[l]) / float64(n)
		}
		add("self_ms."+l, v, "ms", p.campaigns())
	}

	// Load generation against its budget.
	add("loadgen.max_cells_in_flight", float64(p.maxCells), "count", 1)
	add("loadgen.max_conns", float64(p.maxConns), "count", 1)

	// Tracing overhead: traced minus untraced end-to-end metrics.
	te, ue := p.endToEnd(), untraced.endToEnd()
	for i := range te {
		add("trace_overhead."+te[i].Name, te[i].Value-ue[i].Value, te[i].Unit, te[i].Samples)
	}
	return out
}

// probeKey keys the layer probes' fixed inputs.
var probeKey = []byte("0123456789abcdef")

// runProbes times public functions of the PHY, sim kernel, sensor and
// secure-channel layers on fixed inputs. Each probe reports the median
// of its repetitions.
func runProbes(tr *tracer) ([]metric, error) {
	var out []metric
	probe := func(name, unit string, reps int, per float64, fn func() error) error {
		sp := tr.start(layerProbe, name, 0)
		defer tr.end(sp)
		xs := make([]float64, reps)
		for i := range xs {
			t0 := time.Now()
			if err := fn(); err != nil {
				return fmt.Errorf("probe %s: %w", name, err)
			}
			xs[i] = float64(time.Since(t0)) / per
		}
		out = append(out, metric{Name: name, Value: median(xs), Unit: unit, Samples: reps})
		return nil
	}

	rng := sim.NewRNG(1)
	buf := make([]float64, 4096)
	if err := probe("sim.normfill_ns_per_sample", "ns", 200, float64(len(buf)), func() error {
		rng.NormFill(buf)
		return nil
	}); err != nil {
		return nil, err
	}

	sts, err := uwb.NewSTS(probeKey, 1, 256)
	if err != nil {
		return nil, err
	}
	ch := uwb.Channel{DistanceM: 60, NoiseStd: 0.2}
	rx := ch.Propagate(sts.Waveform(), ch.DelaySamples()+len(sts.Waveform())+512, sim.NewRNG(1))
	if err := probe("uwb.correlate_us", "us", 200, float64(time.Microsecond), func() error {
		if len(uwb.Correlate(rx, sts)) == 0 {
			return fmt.Errorf("empty correlation")
		}
		return nil
	}); err != nil {
		return nil, err
	}

	sess := uwb.Session{
		Key: probeKey, Session: 1, Pulses: 256,
		Channel: uwb.Channel{DistanceM: 60, NoiseStd: 0.2},
		Secure:  true, Config: uwb.DefaultSecureConfig(),
	}
	mrng := sim.NewRNG(1)
	if err := probe("uwb.measure_us", "us", 100, float64(time.Microsecond), func() error {
		_, err := sess.Measure(nil, mrng)
		return err
	}); err != nil {
		return nil, err
	}

	cfg := sensor.DefaultEncounter(sensor.VerifiedFusion, nil)
	erng := sim.NewRNG(42)
	if err := probe("sensor.encounter_ms", "ms", 15, float64(time.Millisecond), func() error {
		res, err := sensor.RunEncounter(cfg, []byte("exp-ca-range-key"), erng)
		if err == nil && res.Collided {
			err = fmt.Errorf("benign encounter collided")
		}
		return err
	}); err != nil {
		return nil, err
	}

	for _, name := range []string{"SECOC", "MACsec"} {
		for _, n := range []int{1, 256} {
			entry, err := suites.Lookup(name)
			if err != nil {
				return nil, err
			}
			s, err := entry.New(secchan.Params{Key: probeKey, RNG: sim.NewRNG(1)})
			if err != nil {
				return nil, err
			}
			payloads := make([][]byte, n)
			for i := range payloads {
				payloads[i] = make([]byte, 64)
			}
			var wires [][]byte
			var verdicts []secchan.Verdict
			// Each repetition protects and verifies 256 frames, in
			// batches of n.
			batches := 256 / n
			if err := probe(fmt.Sprintf("secchan.frame_ns.%s.n%d", name, n), "ns", 100, 256, func() error {
				for b := 0; b < batches; b++ {
					var err error
					if wires, err = secchan.ProtectBatch(s, payloads, wires); err != nil {
						return err
					}
					verdicts = secchan.VerifyBatch(s, wires, verdicts)
					for j := range verdicts {
						if verdicts[j].Err != nil {
							return verdicts[j].Err
						}
					}
				}
				return nil
			}); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// probeCache times Cache.Get on up to 256 of the run's own entries, then
// Cache.Put of the same entries into a scratch cache.
func probeCache(c *resultcache.Cache, keys []string, scratch string) (get, put []float64, err error) {
	sort.Strings(keys)
	if len(keys) > 256 {
		keys = keys[:256]
	}
	dir, err := os.MkdirTemp(scratch, "put-")
	if err != nil {
		return nil, nil, err
	}
	defer removeAll(dir)
	dst, err := resultcache.New(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, k := range keys {
		t0 := time.Now()
		e, ok := c.Get(k)
		get = append(get, us(time.Since(t0)))
		if !ok {
			return nil, nil, fmt.Errorf("resultcache probe: entry %s unreadable", k)
		}
		t0 = time.Now()
		if err := dst.Put(k, e); err != nil {
			return nil, nil, err
		}
		put = append(put, us(time.Since(t0)))
	}
	return get, put, nil
}
