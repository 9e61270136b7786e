package campaign_test

// The report-text scraper is the test oracle for typed metrics:
// production aggregation reads only the sim.Metric stream each run
// publishes, and TestTypedMetricsMatchScraperAllExperiments
// (crosscheck_test.go) pins that stream to what the scraper derives
// from the same run's rendered report.

import (
	"math"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"autosec/internal/sim"
)

// scrape extracts metrics from a report in the format the experiment
// harness emits: sim.Table blocks ("== title ==" then a header row, a
// dashed separator, and aligned rows until a blank line) plus free-form
// "key: value" lines. Table cells become "<row label>/<column>" metrics;
// key lines contribute the first number after the colon. Names repeated
// within one report get a "#2", "#3", ... suffix so metrics align
// one-to-one across seeds. The result order follows the report, making
// downstream aggregation deterministic.
func scrape(report string) []sim.Metric {
	var (
		metrics []sim.Metric
		seen    = map[string]int{}
	)
	add := func(name string, v float64) {
		seen[name]++
		if n := seen[name]; n > 1 {
			name += "#" + strconv.Itoa(n)
		}
		metrics = append(metrics, sim.Metric{Name: name, Value: v})
	}

	lines := strings.Split(report, "\n")
	for i := 0; i < len(lines); i++ {
		line := lines[i]
		if isTableTitle(line) {
			// Expect header + separator; otherwise treat as prose.
			if i+2 < len(lines) && isSeparator(lines[i+2]) {
				headers := splitColumns(lines[i+1])
				i += 3
				for i < len(lines) && strings.TrimSpace(lines[i]) != "" {
					scrapeRow(lines[i], headers, add)
					i++
				}
				continue
			}
		}
		scrapeKeyValue(line, add)
	}
	return metrics
}

// isTableTitle reports whether line is a sim.Table title ("== t ==").
func isTableTitle(line string) bool {
	t := strings.TrimSpace(line)
	return strings.HasPrefix(t, "== ") && strings.HasSuffix(t, " ==") && len(t) > 6
}

// isSeparator reports whether line is a table's dashed header underline.
func isSeparator(line string) bool {
	t := strings.TrimSpace(line)
	if t == "" {
		return false
	}
	for _, r := range t {
		if r != '-' && r != ' ' {
			return false
		}
	}
	return strings.Contains(t, "-")
}

// columnSplit matches the ≥2-space gaps sim.Table renders between
// columns (cell text itself only ever contains single spaces).
var columnSplit = regexp.MustCompile(`\s{2,}`)

func splitColumns(line string) []string {
	return columnSplit.Split(strings.TrimSpace(line), -1)
}

// scrapeRow converts a table data row into metrics named
// "<row label>/<column header>".
func scrapeRow(line string, headers []string, add func(string, float64)) {
	cells := splitColumns(line)
	if len(cells) < 2 {
		return
	}
	label := cells[0]
	for j := 1; j < len(cells) && j < len(headers); j++ {
		if v, ok := sim.ParseMetricNumber(cells[j]); ok {
			add(label+"/"+headers[j], v)
		}
	}
}

// scrapeKeyValue extracts the first number after the first colon of a
// prose line, named by the text before the colon.
func scrapeKeyValue(line string, add func(string, float64)) {
	idx := strings.Index(line, ":")
	if idx <= 0 {
		return
	}
	key := strings.TrimSpace(line[:idx])
	if key == "" {
		return
	}
	for _, tok := range strings.Fields(line[idx+1:]) {
		if v, ok := sim.ParseMetricNumber(tok); ok {
			add(key, v)
			return
		}
	}
}

const sampleReport = `== Fig. 2 — UWB ranging modes under attack ==
mode  receiver       attack      accepted  dist-manipulated  mean-err-m
----  -------------  ----------  --------  ----------------  ----------
HRP   naive          none        40/40     0/40              -0.042
HRP   secure         ghost-peak  0/40      0/40              0.000
LRP   commitment     ED/LC       0/40      0/40              -

distance bounding (32 rounds): mafia-fraud guess acceptance theory 2.33e-10, pre-ask 1.00e-04
undefended posture: 21 cross-layer attack paths to safety impact, e.g.
  T-3rdparty → T-remote-entry → T-malware
synergy check: deploying {SECOC, MACsec, V2X auth, misbehaviour detection} without key management leaves 4 of them ineffective
context: classic CAN frame 118 wire bits
no numbers here: only words
`

func metricsByName(ms []sim.Metric) map[string]float64 {
	out := make(map[string]float64, len(ms))
	for _, m := range ms {
		out[m.Name] = m.Value
	}
	return out
}

func TestScrapeTableRows(t *testing.T) {
	t.Parallel()
	got := metricsByName(scrape(sampleReport))
	cases := map[string]float64{
		"HRP/accepted":         1,      // 40/40
		"HRP/dist-manipulated": 0,      // 0/40
		"HRP/mean-err-m":       -0.042, // plain float
		"HRP/accepted#2":       0,      // second HRP row, deduplicated
		"LRP/accepted":         0,
	}
	for name, want := range cases {
		v, ok := got[name]
		if !ok {
			t.Errorf("metric %q not scraped; have %v", name, got)
			continue
		}
		if math.Abs(v-want) > 1e-12 {
			t.Errorf("%s = %v, want %v", name, v, want)
		}
	}
	// The "-" cell must not produce a metric.
	if _, ok := got["LRP/mean-err-m"]; ok {
		t.Error(`"-" cell scraped as a number`)
	}
}

func TestScrapeKeyValueLines(t *testing.T) {
	t.Parallel()
	got := metricsByName(scrape(sampleReport))
	if v := got["distance bounding (32 rounds)"]; v != 2.33e-10 {
		t.Errorf("scientific-notation value = %v, want 2.33e-10", v)
	}
	if v := got["undefended posture"]; v != 21 {
		t.Errorf("undefended posture = %v, want 21", v)
	}
	// "V2X" and "{SECOC," must not parse; the first true number is 4.
	if v := got["synergy check"]; v != 4 {
		t.Errorf("synergy check = %v, want 4", v)
	}
	if v := got["context"]; v != 118 {
		t.Errorf("context = %v, want 118", v)
	}
	if _, ok := got["no numbers here"]; ok {
		t.Error("line without numbers produced a metric")
	}
}

func TestScrapeOrderStable(t *testing.T) {
	t.Parallel()
	a := scrape(sampleReport)
	b := scrape(sampleReport)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("order unstable at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestParseNumber(t *testing.T) {
	t.Parallel()
	accept := map[string]float64{
		"40/40":     1,
		"0/40":      0,
		"3/4":       0.75,
		"166.400":   166.4,
		"2.33e-10":  2.33e-10,
		"(21)":      21,
		"1.00e-04,": 1e-4,
		"-0.042":    -0.042,
	}
	for tok, want := range accept {
		v, ok := sim.ParseMetricNumber(tok)
		if !ok || math.Abs(v-want) > 1e-15 {
			t.Errorf("ParseMetricNumber(%q) = %v, %v; want %v, true", tok, v, ok, want)
		}
	}
	for _, tok := range []string{"-", "yes", "V2X", "10B-T1S", "a/b", "1/0", "", "e.g."} {
		if v, ok := sim.ParseMetricNumber(tok); ok {
			t.Errorf("ParseMetricNumber(%q) accepted as %v", tok, v)
		}
	}
}
