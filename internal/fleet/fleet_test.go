package fleet_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"autosec/internal/campaign"
	"autosec/internal/config"
	"autosec/internal/fleet"
	"autosec/internal/resultcache"
	"autosec/internal/scenario"
	"autosec/internal/server"
)

// The test grid mixes registry and scenario experiments: cheap cells,
// both namespaces, small enough to run many schedules under -race.
var testIDs = []string{"fig3", "exp-ids", "scn-alpha"}

// workerConfig builds a daemon config with the scn-alpha corpus and
// the given cache directory ("" = a private temp dir).
func workerConfig(t *testing.T, cacheDir string) config.Config {
	t.Helper()
	dir := t.TempDir()
	scnDir := filepath.Join(dir, "scenarios")
	sp := scenario.DefaultSpec("alpha")
	folder := filepath.Join(scnDir, "alpha")
	if err := os.MkdirAll(folder, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(folder, scenario.SpecFile), sp.MarshalINI(), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := config.Default()
	cfg.ScenarioDir = scnDir
	if cacheDir == "" {
		cacheDir = filepath.Join(dir, "cache")
	}
	cfg.Cache.Dir = cacheDir
	return cfg
}

// newWorker starts one in-process avsecd worker, optionally wrapped in
// a fault-injection middleware.
func newWorker(t *testing.T, cfg config.Config, wrap func(http.Handler) http.Handler) *httptest.Server {
	t.Helper()
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := http.Handler(s.Handler())
	if wrap != nil {
		h = wrap(h)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts
}

// serialBaseline is the ground truth: the exact spec `avsec campaign`
// runs, serial and pool-free, in this process.
func serialBaseline(t *testing.T, ids []string, seeds []int64, recheck float64) *campaign.Result {
	t.Helper()
	ns, err := scenario.LoadNamespace(workerConfig(t, "").ScenarioDir)
	if err != nil {
		t.Fatal(err)
	}
	res, err := campaign.Run(campaign.Spec{
		IDs:      ids,
		Seeds:    seeds,
		Jobs:     1,
		Recheck:  recheck,
		RunTyped: ns.RunFunc(nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// cellOrder renders the OnCell observation sequence for order checks.
func cellOrder(cells []campaign.CellResult) []string {
	var out []string
	for _, c := range cells {
		out = append(out, fmt.Sprintf("%s/%d", c.ID, c.Seed))
	}
	return out
}

func cacheStats(t *testing.T, ts *httptest.Server) resultcache.Stats {
	t.Helper()
	resp, err := http.Get(ts.URL + "/api/v1/cache")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Stats resultcache.Stats `json:"stats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc.Stats
}

func firstDiff(a, b string) string {
	off := 0
	for off < len(a) && off < len(b) && a[off] == b[off] {
		off++
	}
	end := func(s string) string {
		e := off + 32
		if e > len(s) {
			e = len(s)
		}
		return s[off:e]
	}
	return fmt.Sprintf("byte %d: %q vs %q", off, end(a), end(b))
}

// TestSerialParallelCrossCheckFleet extends the serial/parallel
// cross-check (internal/core, internal/server; same CI -run pattern)
// to the fleet tier: the coordinator's merged output must be
// byte-identical to the serial CLI campaign at every worker count and
// chunk size, its OnCell stream must observe grid order, and the
// determinism self-check must survive distribution (the rendered
// header counts the same rechecked cells).
func TestSerialParallelCrossCheckFleet(t *testing.T) {
	seeds := campaign.Seeds(42, 3)
	serial := serialBaseline(t, testIDs, seeds, 0.25)
	want := serial.RenderSummary()
	wantOrder := cellOrder(serial.Cells)

	workerCounts := []int{1, 2, runtime.GOMAXPROCS(0)}
	for _, n := range workerCounts {
		for _, chunkSize := range []int{1, 3} {
			t.Run(fmt.Sprintf("workers=%d/chunk=%d", n, chunkSize), func(t *testing.T) {
				var urls []string
				for i := 0; i < n; i++ {
					urls = append(urls, newWorker(t, workerConfig(t, ""), nil).URL)
				}
				var streamed []campaign.CellResult
				rep, err := fleet.Run(context.Background(), fleet.Config{
					Workers:   urls,
					IDs:       testIDs,
					Seeds:     seeds,
					ChunkSize: chunkSize,
					Recheck:   0.25,
					OnCell:    func(c campaign.CellResult) { streamed = append(streamed, c) },
				})
				if err != nil {
					t.Fatal(err)
				}
				got := rep.Result.RenderSummary()
				if got != want {
					t.Errorf("fleet output diverged from serial CLI output\nfirst difference: %s", firstDiff(want, got))
				}
				if o := cellOrder(streamed); !equalStrings(o, wantOrder) {
					t.Errorf("OnCell order %v, want grid order %v", o, wantOrder)
				}
				if rep.Stats.Rechecks != serial.Rechecked() {
					t.Errorf("fleet rechecked %d cells, serial rechecked %d", rep.Stats.Rechecks, serial.Rechecked())
				}
			})
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestHandshakeRefusesMixedVersions pins the fleet's version
// invariant: two workers reporting different code_version values are
// refused before any work is dispatched, because shared cache keys and
// the determinism contract are only sound across identical binaries.
func TestHandshakeRefusesMixedVersions(t *testing.T) {
	t.Parallel()
	stub := func(version string) *httptest.Server {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprintf(w, `{"status": "ok", "code_version": %q, "jobs": 1, "gomaxprocs": 1}`, version)
		}))
		t.Cleanup(ts.Close)
		return ts
	}
	_, err := fleet.Run(context.Background(), fleet.Config{
		Workers: []string{stub("aaa").URL, stub("bbb").URL},
		IDs:     []string{"fig3"},
		Seeds:   []int64{42},
	})
	if err == nil || !strings.Contains(err.Error(), "mixed code versions") {
		t.Fatalf("mixed-version fleet not refused: %v", err)
	}

	_, err = fleet.Run(context.Background(), fleet.Config{
		Workers: []string{stub("").URL},
		IDs:     []string{"fig3"},
		Seeds:   []int64{42},
	})
	if err == nil || !strings.Contains(err.Error(), "code_version") {
		t.Fatalf("versionless worker not refused: %v", err)
	}
}

// TestHandshakeRefusesMixedExtensions pins the second fleet invariant:
// workers running the same code version but registering different
// extension sets (one carries a drop-in the other lacks) are refused
// at handshake, before a campaign can fail mid-flight on an unknown
// suite or attack name.
func TestHandshakeRefusesMixedExtensions(t *testing.T) {
	t.Parallel()
	stub := func(extensions string) *httptest.Server {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprintf(w, `{"status": "ok", "code_version": "aaa", "extensions": %q, "jobs": 1, "gomaxprocs": 1}`, extensions)
		}))
		t.Cleanup(ts.Close)
		return ts
	}
	_, err := fleet.Run(context.Background(), fleet.Config{
		Workers: []string{stub("fp-with-demo").URL, stub("fp-without-demo").URL},
		IDs:     []string{"fig3"},
		Seeds:   []int64{42},
	})
	if err == nil || !strings.Contains(err.Error(), "mixed extension sets") {
		t.Fatalf("mixed-extension fleet not refused: %v", err)
	}
}

// TestFleetCrossWorkerCacheReuse pins the shared-cache story: a second
// worker pointed at the cache directory a first worker populated
// serves the whole campaign from cache (every cell a hit, zero
// stores) and still produces the serial CLI's exact bytes.
func TestFleetCrossWorkerCacheReuse(t *testing.T) {
	seeds := campaign.Seeds(42, 3)
	want := serialBaseline(t, testIDs, seeds, 0).RenderSummary()
	sharedCache := filepath.Join(t.TempDir(), "cache")

	first := newWorker(t, workerConfig(t, sharedCache), nil)
	rep, err := fleet.Run(context.Background(), fleet.Config{
		Workers: []string{first.URL}, IDs: testIDs, Seeds: seeds,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Result.RenderSummary(); got != want {
		t.Errorf("first fleet run diverged from serial output\nfirst difference: %s", firstDiff(want, got))
	}
	cells := uint64(len(testIDs) * len(seeds))
	if st := cacheStats(t, first); st.Stores < cells {
		t.Fatalf("first worker stored %d entries, want >= %d", st.Stores, cells)
	}

	// A different worker instance, same cache directory: pure replay.
	second := newWorker(t, workerConfig(t, sharedCache), nil)
	rep, err = fleet.Run(context.Background(), fleet.Config{
		Workers: []string{second.URL}, IDs: testIDs, Seeds: seeds,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Result.RenderSummary(); got != want {
		t.Errorf("cache-replayed fleet run diverged from serial output\nfirst difference: %s", firstDiff(want, got))
	}
	st := cacheStats(t, second)
	if st.Hits < cells {
		t.Errorf("replay worker hit the cache %d times, want >= %d (cross-worker reuse)", st.Hits, cells)
	}
	if st.Stores != 0 {
		t.Errorf("replay worker stored %d new entries, want 0", st.Stores)
	}
}

// Fault-injection middlewares. Each wraps a healthy worker and injects
// one failure mode into its campaign endpoint.

// killStreamAfter aborts the connection of the first n campaign
// requests after `lines` complete stream lines: the
// killed-mid-stream worker.
func killStreamAfter(lines int, n int32) func(http.Handler) http.Handler {
	var used atomic.Int32
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if isCampaign(r) && used.Add(1) <= n {
				next.ServeHTTP(&killWriter{ResponseWriter: w, quota: lines}, r)
				return
			}
			next.ServeHTTP(w, r)
		})
	}
}

type killWriter struct {
	http.ResponseWriter
	quota int
}

func (kw *killWriter) Write(p []byte) (int, error) {
	if kw.quota -= bytes.Count(p, []byte("\n")); kw.quota < 0 {
		panic(http.ErrAbortHandler)
	}
	return kw.ResponseWriter.Write(p)
}

func (kw *killWriter) Flush() {
	if f, ok := kw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// hangFirstCampaign never answers the first campaign request: the
// worker that hangs past every deadline.
func hangFirstCampaign() func(http.Handler) http.Handler {
	var used atomic.Bool
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if isCampaign(r) && used.CompareAndSwap(false, true) {
				// Drain the body so the server's background read is
				// armed: that is what turns the coordinator's client-side
				// disconnect into a context cancellation here.
				io.Copy(io.Discard, r.Body)
				<-r.Context().Done()
				panic(http.ErrAbortHandler)
			}
			next.ServeHTTP(w, r)
		})
	}
}

// failCampaigns returns HTTP 500 for the first n campaign requests.
func failCampaigns(n int32) func(http.Handler) http.Handler {
	var used atomic.Int32
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if isCampaign(r) && used.Add(1) <= n {
				http.Error(w, "injected fault", http.StatusInternalServerError)
				return
			}
			next.ServeHTTP(w, r)
		})
	}
}

// abortAllCampaigns kills every campaign connection: the worker that
// dies right after a clean handshake.
func abortAllCampaigns() func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if isCampaign(r) {
				panic(http.ErrAbortHandler)
			}
			next.ServeHTTP(w, r)
		})
	}
}

func isCampaign(r *http.Request) bool {
	return r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/campaign")
}

// TestFleetFaultInjection drives one faulty worker next to one healthy
// worker through every injected failure mode and requires the exact
// serial bytes every time: re-dispatch, straggler re-issue, and
// dedup must make worker failure invisible in the merged output.
func TestFleetFaultInjection(t *testing.T) {
	seeds := campaign.Seeds(42, 4)
	want := serialBaseline(t, testIDs, seeds, 0.25).RenderSummary()
	wantOrder := func() []string {
		return cellOrder(serialBaseline(t, testIDs, seeds, 0.25).Cells)
	}()

	cases := []struct {
		name     string
		fault    func(http.Handler) http.Handler
		timeout  time.Duration
		wantDead bool
	}{
		// Stream cut after the campaign header + one cell: the delivered
		// prefix is kept, the remainder re-dispatches.
		{name: "killed-mid-stream", fault: killStreamAfter(2, 1)},
		// First request hangs forever: the client-side chunk deadline
		// (forwarded as deadline_ms) re-queues its cells.
		{name: "hang-past-deadline", fault: hangFirstCampaign(), timeout: 2 * time.Second},
		// Two straight 500s: plain retry, worker survives.
		{name: "http-500", fault: failCampaigns(2)},
		// Every campaign connection dies after a clean handshake: the
		// worker is retired and the healthy worker absorbs the grid.
		{name: "dead-after-handshake", fault: abortAllCampaigns(), wantDead: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			faulty := newWorker(t, workerConfig(t, ""), tc.fault)
			healthy := newWorker(t, workerConfig(t, ""), nil)
			var streamed []campaign.CellResult
			rep, err := fleet.Run(context.Background(), fleet.Config{
				Workers:      []string{faulty.URL, healthy.URL},
				IDs:          testIDs,
				Seeds:        seeds,
				ChunkSize:    2,
				Recheck:      0.25,
				ChunkTimeout: tc.timeout,
				OnCell:       func(c campaign.CellResult) { streamed = append(streamed, c) },
			})
			if err != nil {
				t.Fatal(err)
			}
			got := rep.Result.RenderSummary()
			if got != want {
				t.Errorf("merged output diverged from serial under fault\nfirst difference: %s", firstDiff(want, got))
			}
			if o := cellOrder(streamed); !equalStrings(o, wantOrder) {
				t.Errorf("OnCell order %v, want grid order %v", o, wantOrder)
			}
			if tc.wantDead {
				if !rep.Workers[0].Dead {
					t.Errorf("faulty worker not retired: %+v", rep.Workers[0])
				}
			}
		})
	}
}

// TestFleetCorruptCacheEntry injects on-disk corruption into one
// worker's populated cache: the damaged entry must degrade to
// recomputation (corrupt counter, not wrong bytes), and the merged
// output must stay byte-identical.
func TestFleetCorruptCacheEntry(t *testing.T) {
	seeds := campaign.Seeds(42, 3)
	want := serialBaseline(t, testIDs, seeds, 0).RenderSummary()
	cacheDir := filepath.Join(t.TempDir(), "cache")
	worker := newWorker(t, workerConfig(t, cacheDir), nil)

	// Populate the cache, then flip bytes in the middle of one entry.
	// One chunk in flight rules out straggler re-issues: a re-issued
	// copy of the chunk holding the damaged cell would recompute it a
	// second time, and the counters below pin exactly one detection
	// and one healing recompute.
	run := func() string {
		rep, err := fleet.Run(context.Background(), fleet.Config{
			Workers: []string{worker.URL}, IDs: testIDs, Seeds: seeds, InFlight: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Result.RenderSummary()
	}
	if got := run(); got != want {
		t.Fatalf("pre-corruption run diverged\nfirst difference: %s", firstDiff(want, got))
	}
	cache, err := resultcache.New(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	keys, err := cache.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) == 0 {
		t.Fatal("no cache entries to corrupt")
	}
	path := cache.EntryPath(keys[0])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := len(data) / 2; i < len(data)/2+8 && i < len(data); i++ {
		data[i] ^= 0xFF
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	before := cacheStats(t, worker)
	if got := run(); got != want {
		t.Errorf("post-corruption run diverged\nfirst difference: %s", firstDiff(want, got))
	}
	after := cacheStats(t, worker)
	if after.Corrupt != before.Corrupt+1 {
		t.Errorf("corrupt counter %d -> %d, want exactly one detection", before.Corrupt, after.Corrupt)
	}
	if after.Stores != before.Stores+1 {
		t.Errorf("stores %d -> %d, want exactly one healing recompute", before.Stores, after.Stores)
	}
}

// TestFleetAllWorkersDead pins the abort path: when every worker dies,
// Run returns the full grid with per-cell errors instead of hanging.
func TestFleetAllWorkersDead(t *testing.T) {
	t.Parallel()
	worker := newWorker(t, workerConfig(t, ""), abortAllCampaigns())
	seeds := campaign.Seeds(42, 2)
	rep, err := fleet.Run(context.Background(), fleet.Config{
		Workers: []string{worker.URL}, IDs: []string{"fig3"}, Seeds: seeds,
	})
	if err == nil {
		t.Fatal("all-dead fleet reported success")
	}
	if rep == nil || len(rep.Result.Cells) != len(seeds) {
		t.Fatalf("all-dead fleet did not return the full grid: %+v", rep)
	}
	for _, c := range rep.Result.Cells {
		if c.Err == nil {
			t.Errorf("cell %s/%d has no error after total fleet failure", c.ID, c.Seed)
		}
	}
	if !rep.Workers[0].Dead {
		t.Errorf("failed worker not marked dead: %+v", rep.Workers[0])
	}
}

// TestFleetContextCancel pins coordinator-side cancellation: a
// canceled context fails the run with the cancellation cause instead
// of dispatching work.
func TestFleetContextCancel(t *testing.T) {
	t.Parallel()
	worker := newWorker(t, workerConfig(t, ""), nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := fleet.Run(ctx, fleet.Config{
		Workers: []string{worker.URL}, IDs: []string{"fig3"}, Seeds: campaign.Seeds(42, 2),
	})
	if err == nil || !strings.Contains(err.Error(), "canceled") {
		t.Fatalf("canceled fleet did not report cancellation: %v", err)
	}
}
