package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"autosec/internal/campaign"
	"autosec/internal/config"
	"autosec/internal/core"
	"autosec/internal/fleet"
	"autosec/internal/resultcache"
	"autosec/internal/server"
	"autosec/internal/sim"
)

// fleetRegistryIDs are the registry experiments of the fleet-cache grid:
// cheap ones, so HTTP/NDJSON, cache and merge carry a real share of the
// time.
var fleetRegistryIDs = map[string]bool{"fig3": true, "tab1": true, "exp-ids": true, "fig4": true, "exp-ota": true}

// campaignTimeout bounds one fleet campaign, so a hung worker fails the
// run instead of stalling it.
const campaignTimeout = 60 * time.Second

// fleetEnv is two avsecd handlers on loopback listeners sharing one
// fresh result-cache directory, and one closed-loop client that runs
// fleet.Run campaigns against them with one chunk in flight per worker.
type fleetEnv struct {
	idList   []string
	costs    map[string]int             // registry only, as `avsec fleet` hints
	exps     map[string]core.Experiment // the merged namespace, for the cross-check
	jobs     int
	cacheDir string
	urls     []string
	servers  []*http.Server
	serving  sync.WaitGroup
	client   *http.Client
	conns    gauge // open client connections, checked against maxConns
	busy     busy  // requests the daemons are serving

	tr     *tracer
	phase  atomic.Pointer[string] // label for server spans
	parent atomic.Int32           // span the next server requests belong to

	stats fleet.Stats // summed over measured campaigns
}

// maxConns is the load generator's connection budget: one per worker.
const maxConns = 2

func setupFleet(o *options, tr *tracer) (env, error) {
	sp := tr.start(layerSetup, "setup", 0)
	defer tr.end(sp)
	e := &fleetEnv{jobs: o.jobs, tr: tr, costs: make(map[string]int), exps: make(map[string]core.Experiment)}
	e.busy.idle.L = &e.busy.mu
	e.setPhase("setup", sp)
	if err := e.start(o, sp); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *fleetEnv) start(o *options, sp int32) error {
	scns, err := compileCorpus(o, e.tr, sp)
	if err != nil {
		return err
	}
	for _, x := range core.Experiments() {
		e.costs[x.ID] = x.Cost
		e.exps[x.ID] = x
		if fleetRegistryIDs[x.ID] {
			e.idList = append(e.idList, x.ID)
		}
	}
	for i, x := range scns {
		e.exps[x.ID] = x
		if i%4 == 0 {
			e.idList = append(e.idList, x.ID)
		}
	}
	e.cacheDir, err = os.MkdirTemp(o.scratch, "cache-")
	if err != nil {
		return err
	}
	for i := 0; i < 2; i++ {
		cfg := config.Default()
		cfg.Jobs = 1
		cfg.ScenarioDir = o.scenarioDir()
		cfg.Cache.Dir = e.cacheDir
		ns := e.tr.start(layerServer, "server.New", sp)
		srv, err := server.New(cfg)
		e.tr.end(ns)
		if err != nil {
			return err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		hs := &http.Server{Handler: e.handler(srv.Handler()), ReadHeaderTimeout: 5 * time.Second}
		e.servers = append(e.servers, hs)
		e.urls = append(e.urls, "http://"+ln.Addr().String())
		e.serving.Add(1)
		go func() {
			defer e.serving.Done()
			hs.Serve(ln) // returns http.ErrServerClosed on close
		}()
	}
	e.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DialContext:         e.dial,
	}}
	hs := e.tr.start(layerFleet, "fleet.HandshakeAll", sp)
	e.parent.Store(hs)
	ctx, cancel := context.WithTimeout(context.Background(), campaignTimeout)
	defer cancel()
	_, err = fleet.HandshakeAll(ctx, e.client, e.urls)
	e.tr.end(hs)
	return err
}

// dial opens a client connection and counts it until it is closed.
func (e *fleetEnv) dial(ctx context.Context, network, addr string) (net.Conn, error) {
	var d net.Dialer
	c, err := d.DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	e.conns.enter()
	return &countedConn{Conn: c, g: &e.conns}, nil
}

type countedConn struct {
	net.Conn
	g    *gauge
	once sync.Once
}

func (c *countedConn) Close() error {
	c.once.Do(c.g.leave)
	return c.Conn.Close()
}

// handler wraps a daemon handler to count the requests in service and,
// when tracing, record one server span per request.
func (e *fleetEnv) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		e.busy.add(1)
		defer e.busy.add(-1)
		sp := e.tr.startLabeled(layerServer, r.Method+" "+r.URL.Path, *e.phase.Load(), 0, e.parent.Load())
		h.ServeHTTP(w, r)
		e.tr.end(sp)
	})
}

// busy counts requests in service. fleet.Run returns once every cell is
// delivered, while a worker may still finish a cancelled duplicate chunk
// and store its cells; the benchmark waits for that work to drain so it
// is charged to the campaign that caused it, not to the next one.
type busy struct {
	mu   sync.Mutex
	idle sync.Cond // L is &mu
	n    int
}

func (b *busy) add(d int) {
	b.mu.Lock()
	b.n += d
	if b.n == 0 {
		b.idle.Broadcast()
	}
	b.mu.Unlock()
}

// wait blocks until no request is in service.
func (b *busy) wait() {
	b.mu.Lock()
	for b.n > 0 {
		b.idle.Wait()
	}
	b.mu.Unlock()
}

func (e *fleetEnv) setPhase(phase string, parent int32) {
	e.phase.Store(&phase)
	e.parent.Store(parent)
}

func (e *fleetEnv) ids() []string { return e.idList }

func (e *fleetEnv) close() error {
	if e.client != nil {
		e.client.CloseIdleConnections()
	}
	for _, hs := range e.servers {
		hs.Close()
	}
	e.serving.Wait()
	if e.cacheDir != "" {
		return os.RemoveAll(e.cacheDir)
	}
	return nil
}

// drain waits, outside the campaign's timed span, for the workers to
// finish every request of the campaign that just returned.
func (e *fleetEnv) drain() {
	e.busy.wait()
	e.setPhase("control", 0)
}

// cacheStats sums the workers' GET /api/v1/cache counters.
func (e *fleetEnv) cacheStats() (resultcache.Stats, error) {
	var sum resultcache.Stats
	for _, u := range e.urls {
		resp, err := e.client.Get(u + "/api/v1/cache")
		if err != nil {
			return sum, err
		}
		var doc struct {
			Stats resultcache.Stats `json:"stats"`
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return sum, err
		}
		if resp.StatusCode != http.StatusOK {
			return sum, fmt.Errorf("cache stats: HTTP %d", resp.StatusCode)
		}
		if err := json.Unmarshal(body, &doc); err != nil {
			return sum, fmt.Errorf("cache stats: %w", err)
		}
		sum.Hits += doc.Stats.Hits
		sum.Misses += doc.Stats.Misses
		sum.Stores += doc.Stats.Stores
		sum.Corrupt += doc.Stats.Corrupt
	}
	return sum, nil
}

func (e *fleetEnv) run(g grid, phase string, tr *tracer) outcome {
	sp := tr.startLabeled(layerFleet, "fleet.Run", phase, 0, 0)
	e.setPhase(phase, sp)
	cfg := fleet.Config{
		Workers:  e.urls,
		IDs:      g.ids,
		Seeds:    g.seeds,
		InFlight: 1,
		Recheck:  recheck,
		CostHint: func(id string) int { return e.costs[id] },
		Client:   e.client,
	}
	ctx, cancel := context.WithTimeout(context.Background(), campaignTimeout)
	defer cancel()
	t0 := time.Now()
	rep, err := fleet.Run(ctx, cfg)
	tr.end(sp)
	out := outcome{cells: g.cells(), err: err}
	if rep == nil {
		out.failed = out.cells + 1
		out.wall = time.Since(t0)
		e.drain()
		return out
	}
	rs := tr.startLabeled(layerCampaign, "RenderSummary", phase, 0, 0)
	out.summary = rep.Result.RenderSummary()
	tr.end(rs)
	out.wall = time.Since(t0)
	e.drain()
	for i := range rep.Result.Cells {
		if rep.Result.Cells[i].Err != nil {
			out.failed++
		}
	}
	out.failed += rep.Result.Divergences()
	if err != nil {
		out.failed++
	}
	st := &e.stats
	st.Cells += rep.Stats.Cells
	st.Chunks += rep.Stats.Chunks
	st.Dispatches += rep.Stats.Dispatches
	st.Redispatches += rep.Stats.Redispatches
	st.Steals += rep.Stats.Steals
	st.Duplicates += rep.Stats.Duplicates
	return out
}

// gate renders the first cold grid through an in-process campaign.Run;
// the fleet's merged summary of that grid must match it byte for byte.
func (e *fleetEnv) gate(first grid) (string, error) {
	pool := sim.NewWorkerPool(e.jobs)
	res, err := campaign.Run(campaign.Spec{
		IDs:     first.ids,
		Seeds:   first.seeds,
		Jobs:    e.jobs,
		Pool:    pool,
		Recheck: recheck,
		RunTyped: func(id string, seed int64) (string, []sim.Metric, error) {
			r, err := core.RunResultOf(e.exps[id], seed, core.RunOptions{Pool: pool})
			if err != nil {
				return "", nil, err
			}
			return r.Report, r.Metrics, nil
		},
	})
	if err != nil {
		return "", fmt.Errorf("fleet gate: in-process reference: %w", err)
	}
	return res.RenderSummary(), nil
}

// checkWarm fails a warm replay that wrote to or missed the cache.
func checkWarm(d resultcache.Stats) error {
	if d.Stores != 0 || d.Misses != 0 || d.Corrupt != 0 {
		return fmt.Errorf("warm replay touched the cache beyond reads: %d stores, %d misses, %d corrupt", d.Stores, d.Misses, d.Corrupt)
	}
	if d.Hits == 0 {
		return errors.New("warm replay read nothing from the cache")
	}
	return nil
}

func statsDelta(a, b resultcache.Stats) resultcache.Stats {
	return resultcache.Stats{Hits: b.Hits - a.Hits, Misses: b.Misses - a.Misses, Stores: b.Stores - a.Stores, Corrupt: b.Corrupt - a.Corrupt}
}
