package scenario

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"autosec/internal/core"
)

// writeCorpus materialises specs as dir/<name>/scenario.ini.
func writeCorpus(t *testing.T, dir string, specs ...*Spec) {
	t.Helper()
	for _, sp := range specs {
		folder := filepath.Join(dir, sp.Name)
		if err := os.MkdirAll(folder, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(folder, SpecFile), sp.MarshalINI(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestNamespace covers the id rules avsec and avsecd share: registry
// precedence, scenario resolution, registry-only namespaces, merged
// did-you-mean suggestions, the default grids and the cache-key
// fingerprints.
func TestNamespace(t *testing.T) {
	dir := t.TempDir()
	zeta, alpha := DefaultSpec("zeta"), DefaultSpec("alpha")
	alpha.Attacker.Type = AttackReplay
	writeCorpus(t, dir, zeta, alpha) // written out of name order on purpose
	ns, err := LoadNamespace(dir)
	if err != nil {
		t.Fatal(err)
	}

	var registry []string
	for _, e := range core.Experiments() {
		registry = append(registry, e.ID)
	}
	lookupErr := func(t *testing.T, ns *Namespace, id string) string {
		t.Helper()
		if _, err := ns.Lookup(id); err != nil {
			return err.Error()
		}
		t.Fatalf("Lookup(%q) succeeded, want an unknown-id error", id)
		return ""
	}

	for _, tc := range []struct {
		name  string
		check func(t *testing.T)
	}{
		{"registry first", func(t *testing.T) {
			for _, want := range core.Experiments() {
				if strings.HasPrefix(want.ID, IDPrefix) {
					t.Errorf("registry id %q carries the scenario prefix %q", want.ID, IDPrefix)
				}
				e, err := ns.Lookup(want.ID)
				if err != nil || e.Source != want.Source || e.Title != want.Title || e.Cost != want.Cost {
					t.Errorf("Lookup(%q) = %+v, %v; want the registry entry", want.ID, e, err)
				}
			}
		}},
		{"scenario id resolves", func(t *testing.T) {
			e, err := ns.Lookup("scn-alpha")
			if err != nil {
				t.Fatal(err)
			}
			if e.ID != "scn-alpha" || e.Source != "scenario" || e.Title != alpha.Title {
				t.Errorf("Lookup(scn-alpha) = %+v", e)
			}
			if want, _ := Compile(alpha); ns.Cost("scn-alpha") != want.Cost {
				t.Errorf("Cost(scn-alpha) = %d, want %d", ns.Cost("scn-alpha"), want.Cost)
			}
		}},
		{"missing dir is registry only", func(t *testing.T) {
			for _, d := range []string{filepath.Join(dir, "missing"), ""} {
				reg, err := LoadNamespace(d)
				if err != nil {
					t.Fatalf("LoadNamespace(%q): %v", d, err)
				}
				if got := reg.IDs(false); !reflect.DeepEqual(got, registry) {
					t.Errorf("LoadNamespace(%q).IDs(false) = %v", d, got)
				}
				if len(reg.IDs(true)) != 0 || len(reg.Specs()) != 0 {
					t.Errorf("LoadNamespace(%q) holds a corpus: %v", d, reg.IDs(true))
				}
				if msg := lookupErr(t, reg, "scn-alpha"); strings.Contains(msg, "did you mean scn-") {
					t.Errorf("registry-only namespace suggests scenarios: %s", msg)
				}
			}
		}},
		{"typos suggest from both namespaces", func(t *testing.T) {
			if got, want := lookupErr(t, ns, "scn-alph"), `unknown experiment "scn-alph" (did you mean scn-alpha`; !strings.HasPrefix(got, want) {
				t.Errorf("scenario typo: %q, want prefix %q", got, want)
			}
			if got, want := lookupErr(t, ns, "fig88"), `unknown experiment "fig88" (did you mean fig8`; !strings.HasPrefix(got, want) {
				t.Errorf("registry typo: %q, want prefix %q", got, want)
			}
			if got, want := lookupErr(t, ns, "zzzzzzzzzzzz"), `unknown experiment "zzzzzzzzzzzz"`; got != want {
				t.Errorf("garbage id: %q, want %q", got, want)
			}
		}},
		{"default grids", func(t *testing.T) {
			if got := ns.IDs(false); !reflect.DeepEqual(got, registry) {
				t.Errorf("IDs(false) = %v, want the registry in paper order", got)
			}
			if got, want := ns.IDs(true), []string{"scn-alpha", "scn-zeta"}; !reflect.DeepEqual(got, want) {
				t.Errorf("IDs(true) = %v, want %v", got, want)
			}
			specs := ns.Specs()
			if len(specs) != 2 || specs[0].Name != "alpha" || specs[1].Name != "zeta" {
				t.Errorf("Specs() not in name order: %v", specs)
			}
		}},
		{"fingerprints", func(t *testing.T) {
			for _, id := range []string{"fig8", "exp-ca", "scn-missing"} {
				if fp := ns.Fingerprint(id); fp != "" {
					t.Errorf("Fingerprint(%q) = %q, want empty", id, fp)
				}
			}
			if got, want := ns.Fingerprint("scn-alpha"), alpha.Fingerprint(); got != want || got == "" {
				t.Errorf("Fingerprint(scn-alpha) = %q, want %q", got, want)
			}
			if ns.Fingerprint("scn-alpha") == ns.Fingerprint("scn-zeta") {
				t.Error("different specs share a fingerprint")
			}
		}},
		{"run func", func(t *testing.T) {
			run := ns.RunFunc(nil)
			for _, id := range []string{"fig3", "scn-alpha"} {
				e, _ := ns.Lookup(id)
				want, err := core.RunResultOf(e, 7, core.RunOptions{})
				if err != nil {
					t.Fatal(err)
				}
				report, metrics, err := run(id, 7)
				if err != nil || report != want.Report || !reflect.DeepEqual(metrics, want.Metrics) {
					t.Errorf("RunFunc(%s, 7) differs from core.RunResultOf (err %v)", id, err)
				}
			}
			if _, _, err := run("scn-alph", 7); err == nil || !strings.Contains(err.Error(), "did you mean scn-alpha") {
				t.Errorf("RunFunc on an unknown id: %v", err)
			}
		}},
	} {
		t.Run(tc.name, tc.check)
	}
}
