package campaign

import (
	"os"
	"os/exec"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
)

func schemaOf(t reflect.Type) string {
	var b strings.Builder
	writeSchema(&b, t)
	return b.String()
}

func fieldsOf(t reflect.Type) []reflect.StructField {
	fs := make([]reflect.StructField, t.NumField())
	for i := range fs {
		fs[i] = t.Field(i)
	}
	return fs
}

// TestSchemaWalkSeesEveryEdit rebuilds each walked type with one field
// added, renamed, retagged or retyped: every edit changes the schema,
// and a rebuild with the same fields (a renamed type) does not.
func TestSchemaWalkSeesEveryEdit(t *testing.T) {
	edits := map[string]func(fs []reflect.StructField, i int) []reflect.StructField{
		"add": func(fs []reflect.StructField, i int) []reflect.StructField {
			return append(fs, reflect.StructField{Name: "Extra", Type: reflect.TypeFor[int](), Tag: `json:"extra"`})
		},
		"rename": func(fs []reflect.StructField, i int) []reflect.StructField {
			fs[i].Name += "X"
			return fs
		},
		"retag": func(fs []reflect.StructField, i int) []reflect.StructField {
			fs[i].Tag = `json:"retagged"`
			return fs
		},
		"retype": func(fs []reflect.StructField, i int) []reflect.StructField {
			if fs[i].Type.Kind() == reflect.String {
				fs[i].Type = reflect.TypeFor[int]()
			} else {
				fs[i].Type = reflect.TypeFor[string]()
			}
			return fs
		},
	}
	for _, root := range schemaRoots {
		base := schemaOf(root)
		if got := schemaOf(reflect.StructOf(fieldsOf(root))); got != base {
			t.Errorf("%s: a rebuilt type with the same fields changed the schema", root.Name())
		}
		for name, edit := range edits {
			for i := range root.NumField() {
				if schemaOf(reflect.StructOf(edit(fieldsOf(root), i))) == base {
					t.Errorf("%s: %s at field %s left the schema unchanged", root.Name(), name, root.Field(i).Name)
				}
			}
		}
	}

	// The walk recurses: an edit inside a nested type shows at the root.
	fs := fieldsOf(reflect.TypeFor[CellResult]())
	for i := range fs {
		if fs[i].Name == "Summary" {
			nested := fieldsOf(fs[i].Type)
			fs[i].Type = reflect.StructOf(append(nested, reflect.StructField{Name: "Extra", Type: reflect.TypeFor[float64]()}))
		}
	}
	if schemaOf(reflect.StructOf(fs)) == schemaOf(reflect.TypeFor[CellResult]()) {
		t.Error("a field added to metrics.Summary left CellResult's schema unchanged")
	}
}

// scaledGrant is a heuristic whose first grant is scaled by k. At k = 1
// it is a refactor that changes no result; any other k is a semantic
// change of the kind a schema check cannot see.
type scaledGrant struct {
	*core.Heuristic
	k float64
}

func (s scaledGrant) AllocateInto(scr *core.Scratch, now float64, apps []*core.AppView, cap core.Capacity) []core.Grant {
	g := s.Heuristic.AllocateInto(scr, now, apps, cap)
	if len(g) > 0 {
		g[0].BW *= s.k
	}
	return g
}

// withScaledMaxSysEff resolves schedulers as core.ByName does, except
// that MaxSysEff is wrapped in scaledGrant.
func withScaledMaxSysEff(k float64) func(string) (core.Scheduler, error) {
	return func(name string) (core.Scheduler, error) {
		if name == "MaxSysEff" {
			return scaledGrant{core.MaxSysEff(), k}, nil
		}
		return core.ByName(name)
	}
}

func TestFingerprintTracksBehaviour(t *testing.T) {
	want, err := engineFingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if got, err := behaviourFingerprint(core.ByName); err != nil || got != want {
		t.Fatalf("recomputed fingerprint %s (%v), want %s", got, err, want)
	}
	if got, err := behaviourFingerprint(withScaledMaxSysEff(1)); err != nil || got != want {
		t.Errorf("a refactor with the same results changed the fingerprint: %s (%v), want %s", got, err, want)
	}
	got, err := behaviourFingerprint(withScaledMaxSysEff(0.5))
	if err != nil {
		t.Fatal(err)
	}
	if got == want {
		t.Error("halving one MaxSysEff grant left the fingerprint unchanged")
	}
}

// TestFingerprintSameAcrossProcesses recomputes the fingerprint in two
// child processes, at GOMAXPROCS 1 and 2, and requires both to agree
// with this process.
func TestFingerprintSameAcrossProcesses(t *testing.T) {
	const env = "CAMPAIGN_PRINT_FINGERPRINT"
	want, err := engineFingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if os.Getenv(env) == "1" {
		os.Stdout.WriteString("fingerprint " + want + "\n")
		return
	}
	for _, procs := range []string{"1", "2"} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestFingerprintSameAcrossProcesses$", "-test.count=1")
		cmd.Env = append(os.Environ(), env+"=1", "GOMAXPROCS="+procs)
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("GOMAXPROCS=%s: %v\n%s", procs, err, out)
		}
		_, after, ok := strings.Cut(string(out), "fingerprint ")
		if got, _, _ := strings.Cut(after, "\n"); !ok || got != want {
			t.Errorf("GOMAXPROCS=%s: child computed %q, want %s", procs, got, want)
		}
	}
}

// BenchmarkBehaviourFingerprint is the cost the first Expand in a
// process pays: the schema walk plus the battery.
func BenchmarkBehaviourFingerprint(b *testing.B) {
	for b.Loop() {
		if _, err := behaviourFingerprint(core.ByName); err != nil {
			b.Fatal(err)
		}
	}
}
