package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"sync"

	"repro/internal/core"
)

// engineFingerprint is the behaviour fingerprint every cell key carries
// in its Engine slot, computed once per process. A change to what the
// engine computes, or to the layout of what the cache stores, changes
// it and so misses every cached cell; a refactor that changes neither
// keeps the cache warm.
var engineFingerprint = sync.OnceValues(func() (string, error) {
	return behaviourFingerprint(core.ByName)
})

// behaviourFingerprint hashes two things: the layout of the cached and
// hashed types (schemaRoots, as JSON sees them), and the JSON of the
// CellResults the fixed reference battery produces with its schedulers
// resolved through byName. The battery samples behaviour: a change that
// shows only at a scale or in a corner it does not reach goes unseen.
func behaviourFingerprint(byName func(string) (core.Scheduler, error)) (string, error) {
	h := sha256.New()
	for _, t := range schemaRoots {
		writeSchema(h, t)
	}
	enc := json.NewEncoder(h)
	for _, s := range battery() {
		cells, err := s.cells()
		if err != nil {
			return "", err
		}
		ptrs := make([]*Cell, len(cells))
		for i := range cells {
			ptrs[i] = &cells[i]
		}
		for _, shard := range byShard(ptrs) {
			results, err := runShard(shard, s.Sim, byName)
			if err != nil {
				return "", fmt.Errorf("campaign: fingerprint battery: %w", err)
			}
			for _, res := range results {
				if err := enc.Encode(res); err != nil {
					return "", err
				}
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// schemaRoots are the types whose layout the cache depends on: what an
// entry stores, what a key hashes, and the options every cell runs
// under.
var schemaRoots = []reflect.Type{
	reflect.TypeFor[CellResult](),
	reflect.TypeFor[cellContent](),
	reflect.TypeFor[SimOptions](),
}

// writeSchema writes t's layout: for a struct, every field's name, JSON
// tag and type, recursively; otherwise the kind and element types. Type
// names are left out, so renaming or moving a type keeps the
// fingerprint. The walked types are not recursive.
func writeSchema(w io.Writer, t reflect.Type) {
	switch t.Kind() {
	case reflect.Struct:
		io.WriteString(w, "{")
		for i := range t.NumField() {
			f := t.Field(i)
			fmt.Fprintf(w, "%s %q ", f.Name, f.Tag.Get("json"))
			writeSchema(w, f.Type)
			io.WriteString(w, ";")
		}
		io.WriteString(w, "}")
	case reflect.Pointer, reflect.Slice:
		fmt.Fprintf(w, "%s ", t.Kind())
		writeSchema(w, t.Elem())
	case reflect.Array:
		fmt.Fprintf(w, "[%d]", t.Len())
		writeSchema(w, t.Elem())
	case reflect.Map:
		io.WriteString(w, "map[")
		writeSchema(w, t.Key())
		io.WriteString(w, "]")
		writeSchema(w, t.Elem())
	default:
		io.WriteString(w, t.Kind().String())
	}
}

// battery is the fixed reference sweep the fingerprint runs: every
// scheduler family core.ByName accepts on two Figure 6 scenarios, then the
// same schedulers on a generated mix through a burst buffer with every
// SimOptions switch on, then one congested-moment cell, so an edit to
// moment generation misses too. Editing it changes the fingerprint,
// which is safe: every cached cell misses once.
func battery() []*Spec {
	schedulers := []string{
		"RoundRobin", "MinDilation", "MaxSysEff", "MinMax-0.5",
		"Priority-RoundRobin", "Priority-MinDilation", "Priority-MaxSysEff", "Priority-MinMax-0.5",
		"fair-share", "proportional-share", "exclusive-fcfs",
	}
	intrepid := []PlatformSpec{{Preset: "intrepid"}}
	return []*Spec{{
		Name:       "fingerprint-fig6",
		Platforms:  intrepid,
		Schedulers: schedulers,
		Workloads:  []WorkloadSpec{{Name: "fig6a", Scenario: "fig6a"}, {Name: "fig6b", Scenario: "fig6b"}},
		Seeds:      SeedRange{Start: 1, Count: 1},
	}, {
		Name:       "fingerprint-options",
		Platforms:  intrepid,
		Schedulers: schedulers,
		Workloads: []WorkloadSpec{{
			Name: "mix",
			Generator: &GeneratorSpec{
				Groups:         []GroupSpec{{Count: 6, Category: "small"}, {Count: 3, Category: "large"}},
				IORatio:        0.3,
				WMinS:          100,
				WMaxS:          300,
				TargetTimeS:    1200,
				MinInstances:   2,
				ReleaseSpreadS: 20,
			},
		}},
		Seeds: SeedRange{Start: 1, Count: 1},
		Sim: SimOptions{
			UseBB:            true,
			RequestLatencyS:  0.5,
			TelemetrySampleS: 10,
			Health:           true,
		},
	}, {
		Name:       "fingerprint-moment",
		Platforms:  intrepid,
		Schedulers: []string{"MaxSysEff"},
		Workloads:  []WorkloadSpec{{Name: "moment", Moments: &MomentSpec{SetSeed: 1}}},
		Seeds:      SeedRange{Start: 1, Count: 1},
	}}
}
