package server

import (
	"bytes"
	"reflect"
	"testing"

	"autosec/internal/campaign"
	"autosec/internal/core"
)

// TestCampaignDefaultsMatchCLI: the zero request plans exactly the
// campaign `avsec campaign` runs without flags, as CampaignRequest
// promises: the registry in paper order, campaign.DefaultSeedCount
// seeds from campaign.DefaultSeedBase, recheck campaign.DefaultRecheck.
func TestCampaignDefaultsMatchCLI(t *testing.T) {
	t.Parallel()
	s, err := New(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.planCampaign(CampaignRequest{})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, e := range core.Experiments() {
		ids = append(ids, e.ID)
	}
	if !reflect.DeepEqual(p.ids, ids) {
		t.Errorf("default ids = %v, want the registry %v", p.ids, ids)
	}
	if want := campaign.Seeds(campaign.DefaultSeedBase, campaign.DefaultSeedCount); !reflect.DeepEqual(p.seeds, want) {
		t.Errorf("default seeds = %v, want %v", p.seeds, want)
	}
	if p.recheck != campaign.DefaultRecheck {
		t.Errorf("default recheck = %v, want %v", p.recheck, campaign.DefaultRecheck)
	}
	// The values docs/DAEMON.md and `avsec campaign -h` document.
	if len(p.seeds) != 8 || p.seeds[0] != 42 || p.recheck != 0.25 {
		t.Errorf("defaults moved: %d seeds from %d, recheck %v", len(p.seeds), p.seeds[0], p.recheck)
	}
}

// TestCampaignPlanningLargestGrid: grids exactly at the cell limit,
// with the largest pool, still plan (TestCampaignRequestValidation
// covers one past each limit).
func TestCampaignPlanningLargestGrid(t *testing.T) {
	t.Parallel()
	s, err := New(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	count, half := maxCampaignCells, maxCampaignCells/2
	for _, req := range []CampaignRequest{
		{IDs: []string{"fig1"}, SeedCount: &count, Jobs: maxCampaignJobs},
		{IDs: []string{"fig1", "scn-alpha"}, SeedCount: &half},
	} {
		p, err := s.planCampaign(req)
		if err != nil {
			t.Fatalf("%v ids × %d seeds: %v", req.IDs, *req.SeedCount, err)
		}
		if cells := len(p.ids) * len(p.seeds); cells != maxCampaignCells {
			t.Errorf("%v: planned %d cells, want %d", req.IDs, cells, maxCampaignCells)
		}
	}
}

// FuzzPlanCampaign feeds arbitrary bytes through the daemon's strict
// request decoder and planner: neither may panic, and every accepted
// plan stays inside the grid and pool bounds. The seed corpus holds the
// request bodies of docs/DAEMON.md and scripts/daemon_smoke.sh.
func FuzzPlanCampaign(f *testing.F) {
	const smokeIDs = `["fig3", "exp-ids", "exp-ota"]`
	for _, body := range []string{
		`{}`,
		`{
  "ids": ["fig3", "scn-gen-0042"],
  "corpus": false,
  "seeds": [7, 11],
  "seed_base": 42,
  "seed_count": 8,
  "jobs": 4,
  "recheck": 0.25,
  "cache": true,
  "include_reports": false,
  "timings": false,
  "deadline_ms": 0,
  "format": "ndjson"
}`,
		`{"ids": ["fig3", "exp-ids", "exp-ota"], "seed_count": 1, "format": "text"}`,
		`{"seed_count": 2, "jobs": 1, "format": "text"}`,
		`{"seed_count": 2, "jobs": 8, "format": "text"}`,
		`{"corpus": true, "seeds": [42, 43], "include_reports": true}`,
		`{"seed_count": 1, "timings": true}`,
		`{"ids": ` + smokeIDs + `, "seed_count": 1, "jobs": 1, "format": "text"}`,
		`{"ids": ` + smokeIDs + `, "seed_count": 1, "jobs": 8, "format": "text"}`,
		`{"ids": ` + smokeIDs + `, "seed_count": 1, "jobs": 4, "format": "text"}`,
		`{"ids": ` + smokeIDs + `, "seed_count": 1, "jobs": 4}`,
		`{"seed_count": 2000000000}`,
		`{"ids": ["fig1"], "seed_count": 65536, "jobs": 1024}`,
	} {
		f.Add([]byte(body))
	}
	s, err := New(testConfig(f))
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := decodeCampaignRequest(bytes.NewReader(data))
		if err != nil {
			return
		}
		p, err := s.planCampaign(req)
		if err != nil {
			return
		}
		if cells := len(p.ids) * len(p.seeds); cells < 1 || cells > maxCampaignCells {
			t.Fatalf("accepted a plan of %d cells (limit %d): %s", cells, maxCampaignCells, data)
		}
		if p.jobs < 1 || p.jobs > maxCampaignJobs {
			t.Fatalf("accepted a plan with jobs %d (limit %d): %s", p.jobs, maxCampaignJobs, data)
		}
	})
}
