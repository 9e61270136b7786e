package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"autosec/internal/campaign"
	"autosec/internal/scenario"
	"autosec/internal/sim"
)

// writeScenario materialises one spec as dir/<name>/scenario.ini.
func writeScenario(t *testing.T, dir string, sp *scenario.Spec) {
	t.Helper()
	folder := filepath.Join(dir, sp.Name)
	if err := os.MkdirAll(folder, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(folder, scenario.SpecFile), sp.MarshalINI(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// loadNamespace loads the namespace `avsec` builds from -scenarios dir.
func loadNamespace(t *testing.T, dir string) *scenario.Namespace {
	t.Helper()
	ns, err := scenario.LoadNamespace(dir)
	if err != nil {
		t.Fatal(err)
	}
	return ns
}

// TestFindExperimentResolvesScenarios: scn-* ids resolve from the
// corpus dir through the same lookup registry experiments use.
func TestFindExperimentResolvesScenarios(t *testing.T) {
	dir := t.TempDir()
	writeScenario(t, dir, scenario.DefaultSpec("replay-probe"))
	ns := loadNamespace(t, dir)

	e, err := lookup(ns, "scn-replay-probe")
	if err != nil {
		t.Fatalf("scenario id did not resolve: %v", err)
	}
	if e.Source != "scenario" {
		t.Errorf("Source = %q, want scenario", e.Source)
	}
	if _, err := lookup(ns, "fig8"); err != nil {
		t.Errorf("registry id stopped resolving: %v", err)
	}
	if _, err := lookup(loadNamespace(t, filepath.Join(dir, "missing")), "fig8"); err != nil {
		t.Errorf("missing scenarios dir must not break registry lookup: %v", err)
	}
}

// TestUnknownIDSuggestsScenarioNames is the satellite: a typoed
// scenario id gets a did-you-mean pointing at the corpus, alongside
// the registry suggestions that already existed.
func TestUnknownIDSuggestsScenarioNames(t *testing.T) {
	dir := t.TempDir()
	writeScenario(t, dir, scenario.DefaultSpec("replay-probe"))
	ns := loadNamespace(t, dir)

	_, err := lookup(ns, "scn-replay-prob")
	if err == nil {
		t.Fatal("typoed scenario id must fail")
	}
	msg := err.Error()
	for _, want := range []string{`unknown experiment "scn-replay-prob"`, "did you mean", "scn-replay-probe", "avsec scenarios"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q does not contain %q", msg, want)
		}
	}

	// Registry typos still suggest registry ids with scenarios loaded.
	_, err = lookup(ns, "fig88")
	if err == nil || !strings.Contains(err.Error(), "fig8") {
		t.Errorf("registry typo lost its suggestion: %v", err)
	}
}

// TestCampaignScenarioCellsJobsInvariant pins the corpus-golden
// contract at the aggregation layer: a campaign over scenario cells
// renders byte-identical summaries at -jobs 1 and -jobs 4.
func TestCampaignScenarioCellsJobsInvariant(t *testing.T) {
	dir := t.TempDir()
	for _, typ := range []string{scenario.AttackReplay, scenario.AttackFlood, scenario.AttackKillChain} {
		sp := scenario.DefaultSpec("cell-" + typ)
		sp.Attacker.Type = typ
		sp.Title = scenario.AutoTitle(sp)
		writeScenario(t, dir, sp)
	}
	ns := loadNamespace(t, dir)
	render := func(jobs int) string {
		pool := sim.NewWorkerPool(jobs)
		res, err := campaign.Run(campaign.Spec{
			IDs:      ns.IDs(true),
			Seeds:    campaign.Seeds(42, 2),
			Jobs:     jobs,
			Pool:     pool,
			RunTyped: ns.RunFunc(pool),
			CostHint: ns.Cost,
		})
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		return res.RenderSummary()
	}
	if a, b := render(1), render(4); a != b {
		t.Error("campaign summary over scenario cells differs between -jobs 1 and -jobs 4")
	}
}
