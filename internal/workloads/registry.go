package workloads

import (
	"slices"
	"sort"
	"sync"

	"xtenergy/internal/core"
)

// All returns every built-in workload: the characterization suite, the
// Table II applications, the extended validation applications, and the
// Reed-Solomon configurations. Each call builds them afresh, into a
// slice the caller owns.
func All() []core.Workload {
	var ws []core.Workload
	ws = append(ws, CharacterizationSuite()...)
	ws = append(ws, Applications()...)
	ws = append(ws, ValidationApplications()...)
	ws = append(ws, ReedSolomonConfigurations()...)
	return ws
}

// registryIndex is the registry by name.
type registryIndex struct {
	byName map[string]core.Workload
	names  []string // sorted
}

// nameIndex builds the index once per process from All(), so that a
// daemon's name lookups stop rebuilding every workload.
var nameIndex = sync.OnceValue(func() registryIndex {
	all := All()
	ix := registryIndex{byName: make(map[string]core.Workload, len(all)), names: make([]string, len(all))}
	for i, w := range all {
		ix.byName[w.Name] = w
		ix.names[i] = w.Name
	}
	sort.Strings(ix.names)
	return ix
})

// ByName finds any built-in workload by name. Every caller shares the
// returned workload's Source, Ext and LintExempt, and must not write
// them.
func ByName(name string) (core.Workload, bool) {
	w, ok := nameIndex().byName[name]
	return w, ok
}

// Names returns the sorted names of all built-in workloads.
func Names() []string {
	return slices.Clone(nameIndex().names)
}
