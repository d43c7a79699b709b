package analysis

import (
	"go/ast"
	"go/types"
)

// Determinism scopes. The engines' decision paths must be bit-identical
// across runs (the golden and cross-engine equivalence batteries depend
// on it), so the analyzer forbids the usual nondeterminism sources in
// them. Map iteration is additionally checked in internal/campaign:
// its aggregation and emitters are the output path the sweep goldens
// pin, so every map walk there must be sorted or justified.
var (
	determinismScope = []string{
		"internal/sim", "internal/core", "internal/des",
		"internal/bb", "internal/periodic", "internal/engine",
	}
	mapRangeScope = append([]string{"internal/campaign"}, determinismScope...)
)

// randConstructors are the package-level functions of math/rand and
// math/rand/v2 that build explicitly seeded generators rather than
// drawing from the unseeded global source.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// Determinism forbids, in the engine decision paths: iteration over
// maps (whose order Go randomizes per run), wall-clock reads
// (time.Now/time.Since — engine time must come from the event clock),
// the unseeded global math/rand source, and closure-based
// sort.Slice/sort.SliceStable in hot paths (internal/xsort.Stable is
// the allocation-free, bit-transparent replacement; the xsort package
// itself is the one permitted delegation point).
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "forbid map-order, wall-clock and unseeded-rand nondeterminism in engine decision paths",
	Run:  runDeterminism,
}

func runDeterminism(pass *Pass) {
	inDetScope := pass.InScope(determinismScope...)
	inMapScope := pass.InScope(mapRangeScope...)
	if !inDetScope && !inMapScope {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				if !inMapScope {
					return true
				}
				tv, ok := pass.Info.Types[n.X]
				if !ok || tv.Type == nil {
					return true
				}
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					pass.Reportf(n.X.Pos(),
						"range over map %s: iteration order is randomized per run and must not feed engine state or output; walk a sorted copy (internal/xsort) or suppress with a justification",
						types.ExprString(n.X))
				}
			case *ast.SelectorExpr:
				if !inDetScope {
					return true
				}
				obj, ok := pass.Info.Uses[n.Sel].(*types.Func)
				if !ok || obj.Pkg() == nil {
					return true
				}
				if sig, ok := obj.Type().(*types.Signature); !ok || sig.Recv() != nil {
					return true // methods are fine (e.g. a seeded *rand.Rand)
				}
				switch obj.Pkg().Path() {
				case "time":
					if obj.Name() == "Now" || obj.Name() == "Since" {
						pass.Reportf(n.Pos(),
							"time.%s in an engine decision path: engine time must come from the event clock, never the wall clock",
							obj.Name())
					}
				case "math/rand", "math/rand/v2":
					if !randConstructors[obj.Name()] {
						pass.Reportf(n.Pos(),
							"%s.%s draws from the unseeded global source; construct a seeded *rand.Rand (rand.New(rand.NewSource(seed))) instead",
							obj.Pkg().Name(), obj.Name())
					}
				case "sort":
					if obj.Name() == "Slice" || obj.Name() == "SliceStable" {
						pass.Reportf(n.Pos(),
							"sort.%s in a hot path: use internal/xsort.Stable (allocation-free, bit-transparent with sort.SliceStable)",
							obj.Name())
					}
				}
			}
			return true
		})
	}
}
