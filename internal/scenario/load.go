package scenario

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"autosec/internal/core"
)

// LoadDir reads every scenario folder under dir (dir/<name>/scenario.ini,
// the SysImpactCV per-scenario layout), validating each spec and
// requiring the [scenario] name to match its folder. A missing dir is
// not an error — it loads zero scenarios, so CLI callers can always
// point at the conventional "scenarios" directory. Specs return sorted
// by name; entries that are not scenario folders (MANIFEST.ini,
// INDEX.md, golden files) are ignored.
func LoadDir(dir string) ([]*Spec, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var specs []*Spec
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		path := filepath.Join(dir, e.Name(), SpecFile)
		data, err := os.ReadFile(path)
		if os.IsNotExist(err) {
			continue // a folder without a spec is not a scenario
		}
		if err != nil {
			return nil, err
		}
		sp, err := Parse(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if sp.Name != e.Name() {
			return nil, fmt.Errorf("%s: scenario name %q does not match its folder %q", path, sp.Name, e.Name())
		}
		if err := sp.Validate(); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		specs = append(specs, sp)
	}
	sort.Slice(specs, func(i, j int) bool { return specs[i].Name < specs[j].Name })
	return specs, nil
}

// CompileDir loads and compiles every scenario under dir, returning the
// experiments in name order.
func CompileDir(dir string) ([]core.Experiment, error) {
	specs, err := LoadDir(dir)
	if err != nil {
		return nil, err
	}
	return compileAll(specs)
}

// compileAll compiles specs in order.
func compileAll(specs []*Spec) ([]core.Experiment, error) {
	exps := make([]core.Experiment, len(specs))
	for i, sp := range specs {
		e, err := Compile(sp)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", sp.Name, err)
		}
		exps[i] = e
	}
	return exps, nil
}
