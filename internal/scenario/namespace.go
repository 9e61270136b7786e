package scenario

import (
	"autosec/internal/core"
	"autosec/internal/sim"
)

// Namespace is the one experiment id space that `avsec` and avsecd
// resolve against: the core registry in paper order, then the
// scenario corpus in name order. It is the only place that decides
// which namespace an id comes from (the registry wins), which ids a
// did-you-mean suggests, which ids form the default campaign grid, and
// which spec fingerprint keys a cell in the result cache. A Namespace
// is immutable after LoadNamespace and safe for concurrent use.
type Namespace struct {
	exps  []core.Experiment // registry in paper order, then the corpus
	fps   []string          // spec fingerprint per exps entry; "" for the registry
	specs []*Spec           // the corpus in name order; the tail of exps
	index map[string]int    // id -> first position in exps
}

// LoadNamespace holds the registry and the corpus under dir, compiled
// once. A missing dir (or "") loads no corpus, so the namespace is the
// registry alone.
func LoadNamespace(dir string) (*Namespace, error) {
	specs, err := LoadDir(dir)
	if err != nil {
		return nil, err
	}
	corpus, err := compileAll(specs)
	if err != nil {
		return nil, err
	}
	ns := &Namespace{exps: append(core.Experiments(), corpus...), specs: specs}
	ns.fps = make([]string, len(ns.exps))
	reg := len(ns.exps) - len(specs)
	for i, sp := range specs {
		ns.fps[reg+i] = sp.Fingerprint()
	}
	ns.index = make(map[string]int, len(ns.exps))
	for i := len(ns.exps) - 1; i >= 0; i-- { // the registry shadows the corpus
		ns.index[ns.exps[i].ID] = i
	}
	return ns, nil
}

// Lookup resolves id, registry first. An unknown id fails with
// core.UnknownExperiment over every id of both namespaces.
func (ns *Namespace) Lookup(id string) (core.Experiment, error) {
	if i, ok := ns.index[id]; ok {
		return ns.exps[i], nil
	}
	ids := make([]string, len(ns.exps))
	for i, e := range ns.exps {
		ids[i] = e.ID
	}
	return core.Experiment{}, core.UnknownExperiment(id, ids)
}

// IDs returns the default campaign grid: the registry in paper order,
// or with corpus set the whole corpus in name order.
func (ns *Namespace) IDs(corpus bool) []string {
	exps := ns.exps[:len(ns.exps)-len(ns.specs)]
	if corpus {
		exps = ns.exps[len(exps):]
	}
	ids := make([]string, len(exps))
	for i, e := range exps {
		ids[i] = e.ID
	}
	return ids
}

// Specs returns the corpus specs in name order. Callers must not
// modify them.
func (ns *Namespace) Specs() []*Spec { return ns.specs }

// Fingerprint returns the spec fingerprint of a corpus id, and "" for
// a registry or unknown id: a registry experiment has no spec beyond
// the binary.
func (ns *Namespace) Fingerprint(id string) string {
	if i, ok := ns.index[id]; ok {
		return ns.fps[i]
	}
	return ""
}

// Cost is the campaign scheduler's cost hint for id (0 when unknown).
func (ns *Namespace) Cost(id string) int {
	if i, ok := ns.index[id]; ok {
		return ns.exps[i].Cost
	}
	return 0
}

// RunFunc returns the campaign cell runner over this namespace: each
// call resolves id and runs it through core.RunResultOf with pool
// routed into the run, so intra-experiment replicate fan-out and
// cell-level parallelism spend one worker budget. nil runs replicate
// loops serially; the output is identical either way. The result is
// assignable to campaign.TypedRunFunc.
func (ns *Namespace) RunFunc(pool *sim.WorkerPool) func(id string, seed int64) (string, []sim.Metric, error) {
	return func(id string, seed int64) (string, []sim.Metric, error) {
		e, err := ns.Lookup(id)
		if err != nil {
			return "", nil, err
		}
		r, err := core.RunResultOf(e, seed, core.RunOptions{Pool: pool})
		if err != nil {
			return "", nil, err
		}
		return r.Report, r.Metrics, nil
	}
}
