package analysis

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// repoRoot is the module root, two levels above this package.
func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// TestTreeIsClean runs the whole analyzer suite over the real tree and
// requires zero unsuppressed diagnostics — the invariant CI enforces,
// pinned here so `go test` alone catches a violation before vet runs.
func TestTreeIsClean(t *testing.T) {
	pkgs, err := Load(repoRoot(t), "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loaded no packages")
	}
	for _, pkg := range pkgs {
		if pkg.TypeError != nil {
			t.Fatalf("type-checking %s: %v", pkg.ImportPath, pkg.TypeError)
		}
		for _, d := range RunAnalyzers(Analyzers(), pkg.Fset, pkg.Files, pkg.Types, pkg.Info, pkg.Module) {
			if !d.Suppressed {
				t.Errorf("%s", d)
			}
		}
	}
}

// TestTreeAllocFree runs the escape-analysis gate over the annotated
// packages and requires it to pass, mirroring the CI job.
func TestTreeAllocFree(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles five packages; skipped in -short")
	}
	diags, err := AllocFree(repoRoot(t),
		"./internal/core", "./internal/telemetry", "./internal/server", "./internal/des", "./internal/engine")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		if !d.Suppressed {
			t.Errorf("%s", d)
		}
	}
}

// fmaExempt are determinismScope packages whose float results no golden,
// bench digest or campaign cache entry pins (docs/static-analysis.md):
// periodic scores its patterns analytically for the ablation figure.
// internal/cluster is outside determinismScope and exempt for the same
// reason: its consumers compare against thresholds with slack.
var fmaExempt = map[string]bool{"internal/periodic": true}

// fmaScope is every package whose float results the goldens, the bench
// digests and the campaign fingerprint pin.
func fmaScope() []string {
	pkgs := []string{
		"./internal/metrics", "./internal/telemetry", "./internal/health",
		"./internal/workload", "./internal/dectrace", "./internal/twin",
	}
	for _, p := range determinismScope {
		if !fmaExempt[p] {
			pkgs = append(pkgs, "./"+p)
		}
	}
	return pkgs
}

var fusedRe = regexp.MustCompile(`\(([^()]+\.go:\d+)\)\s+(FMADDD|FMSUBD|FNMADDD|FNMSUBD)\b`)

// TestTreeFMAFree compiles the bit-identity packages for arm64, where
// the Go spec lets the compiler fuse x*y + z into one rounding, and fails
// on every fused multiply-add it emits. amd64 never fuses, so without
// this gate an arm64 host would compute different goldens, digests and
// campaign fingerprints from the same source. An explicit float64(...)
// conversion of the product forbids the fusion and is free on amd64.
func TestTreeFMAFree(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-compiles eleven packages for arm64; skipped in -short")
	}
	build := exec.Command("go", append([]string{"build", "-gcflags=-S"}, fmaScope()...)...)
	build.Dir = repoRoot(t)
	build.Env = append(os.Environ(), "GOARCH=arm64")
	out, err := build.CombinedOutput()
	if err != nil {
		t.Fatalf("arm64 build: %v\n%s", err, out)
	}
	for _, m := range fusedRe.FindAllStringSubmatch(string(out), -1) {
		t.Errorf("%s: %s fuses a multiply and an add on arm64; convert the product with float64(...)", m[1], m[2])
	}
}

// TestAllocFreeGateCatches demonstrates the gate on a throwaway module:
// an annotated function that leaks is flagged, an allow comment exempts
// a deliberate escape, and an unannotated function is ignored.
func TestAllocFreeGateCatches(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module fixture\n\ngo 1.21\n",
		"leak.go": `package fixture

//iosched:allocfree
func Leak() *int {
	x := new(int)
	return x
}

//iosched:allocfree
func Fine(a, b int) int {
	return a + b
}

//iosched:allocfree
func Allowed() *int {
	//iosched:allocfree-allow fixture: deliberate one-time allocation
	x := new(int)
	return x
}

func Unannotated() *int {
	return new(int)
}
`,
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	diags, err := AllocFree(dir, "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want exactly the Leak escape:\n%v", len(diags), diags)
	}
	if !strings.Contains(diags[0].Message, "Leak") {
		t.Errorf("diagnostic does not name the leaking function: %s", diags[0].Message)
	}
	if diags[0].Pos.Line != 5 {
		t.Errorf("diagnostic at line %d, want 5 (the new(int) line)", diags[0].Pos.Line)
	}
}

// TestVettool builds cmd/ioschedvet and drives it through the real
// `go vet -vettool=` protocol over a clean package — the
// unitchecker-compatibility claim, end to end.
func TestVettool(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the vettool binary; skipped in -short")
	}
	root := repoRoot(t)
	bin := filepath.Join(t.TempDir(), "ioschedvet")
	build := exec.Command("go", "build", "-o", bin, "./cmd/ioschedvet")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building vettool: %v\n%s", err, out)
	}
	vet := exec.Command("go", "vet", "-vettool="+bin, "./internal/periodic", "./internal/campaign")
	vet.Dir = root
	if out, err := vet.CombinedOutput(); err != nil {
		t.Fatalf("go vet -vettool over a clean tree failed: %v\n%s", err, out)
	}
}
