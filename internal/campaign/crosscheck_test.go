package campaign_test

import (
	"math"
	"testing"

	"autosec/internal/core"
	"autosec/internal/sim"
)

// valuesClose compares a typed metric value against its scraped twin.
// Table cells match exactly by construction (both sides parse the same
// rendered text through sim.ParseMetricNumber); prose mirrors publish
// the full-precision value while the report renders a formatted one
// (%.2e and friends), so a small relative tolerance is allowed.
func valuesClose(typed, scraped float64) bool {
	if typed == scraped {
		return true
	}
	diff := math.Abs(typed - scraped)
	if diff <= 1e-9 {
		return true
	}
	scale := math.Max(math.Abs(typed), math.Abs(scraped))
	return diff <= 5e-3*scale
}

// TestTypedMetricsMatchScraperAllExperiments pins the typed metric
// stream campaigns aggregate to the report it accompanies: for every
// registry experiment at seeds 42 and 43, the sim.Metric stream
// published during the run must agree with what the test-only scraper
// (scrape_test.go) extracts from the same run's report — same names,
// same order, same values. A mismatch means an experiment publishes
// numbers its report does not show (or vice versa), so campaign
// aggregates would no longer describe the printed reports.
func TestTypedMetricsMatchScraperAllExperiments(t *testing.T) {
	for _, e := range core.Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			for _, seed := range []int64{42, 43} {
				res, err := core.RunExperimentResult(e.ID, seed, core.RunOptions{})
				if err != nil {
					t.Fatal(err)
				}
				scraped := scrape(res.Report)
				typed := res.Metrics
				n := len(typed)
				if len(scraped) < n {
					n = len(scraped)
				}
				for i := 0; i < n; i++ {
					if typed[i].Name != scraped[i].Name {
						t.Fatalf("seed %d metric %d: typed name %q, scraped name %q", seed, i, typed[i].Name, scraped[i].Name)
					}
					if !valuesClose(typed[i].Value, scraped[i].Value) {
						t.Errorf("seed %d metric %d (%s): typed %v, scraped %v", seed, i, typed[i].Name, typed[i].Value, scraped[i].Value)
					}
				}
				if len(typed) != len(scraped) {
					t.Fatalf("seed %d: typed stream has %d metrics, scraper found %d\ntyped tail: %v\nscraped tail: %v",
						seed, len(typed), len(scraped), tailOf(typed, n), tailOf(scraped, n))
				}
			}
		})
	}
}

func tailOf(m []sim.Metric, from int) []sim.Metric {
	if from >= len(m) {
		return nil
	}
	return m[from:]
}
