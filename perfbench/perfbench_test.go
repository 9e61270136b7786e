package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
	"time"
)

// testOptions runs a fixed number of cold/warm pairs, so two runs do the
// same work whatever the machine's speed.
func testOptions(t *testing.T, seed int64, pairs int) *options {
	return &options{root: "..", scratch: t.TempDir(), seed: seed, pairs: pairs, jobs: 2, setups: 1}
}

func mustMeasure(t *testing.T, name string, o *options) *phase {
	t.Helper()
	w := findWorkload(name)
	if w == nil {
		t.Fatalf("no workload %q", name)
	}
	p, err := measure(w, o, false, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range p.errs {
		t.Errorf("%s: %v", name, e)
	}
	if p.failed != 0 {
		t.Errorf("%s: %d failed cells", name, p.failed)
	}
	return p
}

// TestSameSeedSameRun pins the benchmark's input generation: one seed
// gives the same cells, the same rendered outputs and the same cache
// contents. Hit, miss and store counts are not compared: fleet straggler
// steals duplicate chunks depending on timing.
func TestSameSeedSameRun(t *testing.T) {
	for _, name := range []string{"corpus-campaign", "fleet-cache"} {
		a := mustMeasure(t, name, testOptions(t, 7, 2))
		b := mustMeasure(t, name, testOptions(t, 7, 2))
		if a.cells != b.cells || !slices.Equal(a.digests, b.digests) || a.cacheEntries != b.cacheEntries {
			t.Errorf("%s: seed 7 twice: cells %d/%d, digests %v/%v, cache entries %d/%d",
				name, a.cells, b.cells, a.digests, b.digests, a.cacheEntries, b.cacheEntries)
		}
	}
}

// TestSeedChangesGrid: another seed changes the grid, not its size.
func TestSeedChangesGrid(t *testing.T) {
	a := mustMeasure(t, "corpus-campaign", testOptions(t, 1, 1))
	b := mustMeasure(t, "corpus-campaign", testOptions(t, 2, 1))
	if a.cells != b.cells {
		t.Errorf("cell count depends on the seed: %d vs %d", a.cells, b.cells)
	}
	if slices.Equal(a.digests, b.digests) {
		t.Errorf("seeds 1 and 2 rendered the same campaign")
	}
	for _, w := range workloads {
		s1, s2 := newSchedule(1, w.seedsPerCampaign), newSchedule(2, w.seedsPerCampaign)
		if slices.Equal(s1.seeds(0), s2.seeds(0)) || len(s1.seeds(0)) != len(s2.seeds(0)) {
			t.Errorf("%s: seeds 1 and 2 schedule %v and %v", w.name, s1.seeds(0), s2.seeds(0))
		}
		if slices.Contains(s1.seeds(1), s1.seeds(0)[0]) {
			t.Errorf("%s: cold campaigns 0 and 1 share seeds", w.name)
		}
	}
}

// TestLoadBudget: load generation never runs more cells than jobs nor
// opens more than two connections.
func TestLoadBudget(t *testing.T) {
	for _, name := range []string{"registry-campaign", "corpus-campaign", "fleet-cache"} {
		o := testOptions(t, 3, 1)
		p := mustMeasure(t, name, o)
		if p.maxCells > int64(o.jobs) || p.maxConns > maxConns {
			t.Errorf("%s: %d cells in flight (budget %d), %d connections (budget %d)", name, p.maxCells, o.jobs, p.maxConns, maxConns)
		}
		if name == "fleet-cache" && p.maxConns == 0 {
			t.Errorf("fleet-cache: connection gauge never moved")
		}
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Start: 1 * ms, End: 4 * ms},
		{ID: 3, Parent: 1, Start: 3 * ms, End: 6 * ms},  // overlaps span 2
		{ID: 4, Parent: 1, Start: 8 * ms, End: 12 * ms}, // ends after its parent
	}
	got := selfTimes(spans)
	want := []time.Duration{3 * ms, 3 * ms, 3 * ms, 4 * ms}
	if !slices.Equal(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if q := quantile(xs, 0.5); q != 2.5 {
		t.Errorf("median %v, want 2.5", q)
	}
	if q := quantile(xs, 0.9); math.Abs(q-3.7) > 1e-12 {
		t.Errorf("p90 %v, want 3.7", q)
	}
	if q := quantile(nil, 0.5); q != 0 {
		t.Errorf("empty quantile %v", q)
	}
}

// TestTracedRun: a traced run links each cell and each campaign request
// to the campaign that caused it, and reports exactly the per-layer
// metrics BENCHMARK.json lists.
func TestTracedRun(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, m := range bench.PerLayer {
		want = append(want, m.Name)
	}
	for name, childLayer := range map[string]string{"corpus-campaign": layerCore, "fleet-cache": layerServer} {
		o := testOptions(t, 5, 1)
		p, err := measure(findWorkload(name), o, true, false)
		if err != nil {
			t.Fatal(err)
		}
		byID := make(map[int32]span)
		for _, s := range p.spans {
			byID[s.ID] = s
		}
		children := 0
		for _, s := range p.spans {
			if s.End < s.Start {
				t.Errorf("%s: span %d %s ends before it starts", name, s.ID, s.Name)
			}
			if s.Layer != childLayer || (s.Layer == layerServer && s.Label != "cold" && s.Label != "warm") {
				continue
			}
			children++
			if parent := byID[s.Parent]; parent.Name != "campaign.Run" && parent.Name != "fleet.Run" {
				t.Errorf("%s: %s span %d has parent %q, not its campaign", name, s.Layer, s.ID, parent.Name)
			}
		}
		if children == 0 {
			t.Errorf("%s: no %s spans recorded", name, childLayer)
		}
		var got []string
		for _, m := range perLayer(p, p, o.jobs) {
			got = append(got, m.Name)
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: per-layer metrics\n%v\nwant BENCHMARK.json's\n%v", name, got, want)
		}
	}
}
