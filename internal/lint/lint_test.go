package lint

import (
	"bufio"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// fixtureLoader is shared across fixture tests so the module packages
// fixtures import (mogis/internal/obs, ...) type-check once.
var (
	fixtureOnce   sync.Once
	fixtureShared *Loader
	fixtureErr    error
)

// loadFixture parses and type-checks one fixture package
// (testdata/<analyzer>/<kind>). Fixtures must type-check cleanly:
// a fixture the checker cannot resolve silently weakens every
// type-driven analyzer it exercises.
func loadFixture(t *testing.T, analyzer, kind string) *Package {
	t.Helper()
	fixtureOnce.Do(func() {
		wd, err := os.Getwd()
		if err != nil {
			fixtureErr = err
			return
		}
		root, mod, err := ModuleRoot(wd)
		if err != nil {
			fixtureErr = err
			return
		}
		fixtureShared = NewLoader(root, mod)
	})
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
	dir := filepath.Join("testdata", analyzer, kind)
	p, err := fixtureShared.LoadDir(dir, "fixture/"+analyzer+"/"+kind)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	if p == nil {
		t.Fatalf("fixture %s holds no Go files", dir)
	}
	for _, terr := range p.TypeErrors {
		t.Errorf("fixture %s does not type-check: %v", dir, terr)
	}
	return p
}

// wantLines scans the fixture sources for `// want` markers and
// returns the set of file:line keys expected to carry a finding.
func wantLines(t *testing.T, p *Package) map[string]bool {
	t.Helper()
	want := map[string]bool{}
	entries, err := os.ReadDir(p.Dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(p.Dir, e.Name())
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			if strings.Contains(sc.Text(), "// want") {
				want[keyOf(path, line)] = true
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	return want
}

func keyOf(file string, line int) string {
	return filepath.Base(file) + ":" + itoa(line)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// checkFixtures runs one analyzer over its bad and good fixture
// packages: every `// want` line in bad must carry at least one
// finding and no unmarked line may, and good must be entirely silent.
func checkFixtures(t *testing.T, name string) {
	a := ByName(name)
	if a == nil {
		t.Fatalf("no analyzer named %q", name)
	}

	bad := loadFixture(t, name, "bad")
	want := wantLines(t, bad)
	if len(want) == 0 {
		t.Fatalf("bad fixture for %s has no // want markers", name)
	}
	got := map[string][]string{}
	for _, f := range a.Run([]*Package{bad}) {
		if f.Analyzer != name {
			t.Errorf("finding attributed to %q, want %q", f.Analyzer, name)
		}
		k := keyOf(f.File, f.Line)
		got[k] = append(got[k], f.Message)
	}
	var missing, extra []string
	for k := range want {
		if len(got[k]) == 0 {
			missing = append(missing, k)
		}
	}
	for k, msgs := range got {
		if !want[k] {
			extra = append(extra, k+": "+strings.Join(msgs, "; "))
		}
	}
	sort.Strings(missing)
	sort.Strings(extra)
	for _, m := range missing {
		t.Errorf("%s: marked line drew no finding: %s", name, m)
	}
	for _, e := range extra {
		t.Errorf("%s: unmarked line drew a finding: %s", name, e)
	}

	good := loadFixture(t, name, "good")
	for _, f := range a.Run([]*Package{good}) {
		t.Errorf("%s: good fixture drew a finding: %s", name, f.String())
	}
}

func TestSpanEndFixtures(t *testing.T)         { checkFixtures(t, "spanend") }
func TestCacheInvalidateFixtures(t *testing.T) { checkFixtures(t, "cacheinvalidate") }
func TestDeterminismFixtures(t *testing.T)     { checkFixtures(t, "determinism") }
func TestMetricNameFixtures(t *testing.T)      { checkFixtures(t, "metricname") }
func TestCtxFirstFixtures(t *testing.T)        { checkFixtures(t, "ctxfirst") }
func TestLockOrderFixtures(t *testing.T)       { checkFixtures(t, "lockorder") }
func TestGoroutineJoinFixtures(t *testing.T)   { checkFixtures(t, "goroutinejoin") }
func TestBudgetStrideFixtures(t *testing.T)    { checkFixtures(t, "budgetstride") }
func TestErrWrapFixtures(t *testing.T)         { checkFixtures(t, "errwrap") }

// TestRunAllOrdersFindings pins the stable output contract: findings
// sort by file, line, column, analyzer.
func TestRunAllOrdersFindings(t *testing.T) {
	bad := loadFixture(t, "spanend", "bad")
	findings := RunAll(All(), []*Package{bad})
	if len(findings) == 0 {
		t.Fatal("expected findings from the spanend bad fixture")
	}
	for i := 1; i < len(findings); i++ {
		a, b := findings[i-1], findings[i]
		if a.File > b.File || (a.File == b.File && a.Line > b.Line) {
			t.Errorf("findings out of order: %s before %s", a.String(), b.String())
		}
	}
}

// TestByNameUnknown pins the nil contract for unknown analyzers.
func TestByNameUnknown(t *testing.T) {
	if ByName("nope") != nil {
		t.Error("ByName(nope) should be nil")
	}
}

// TestModuleRoot resolves the repository's own module.
func TestModuleRoot(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, mod, err := ModuleRoot(wd)
	if err != nil {
		t.Fatal(err)
	}
	if mod != "mogis" {
		t.Errorf("module path = %q, want mogis", mod)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Errorf("module root %q has no go.mod: %v", root, err)
	}
}

// TestSelfClean runs every analyzer over the repository itself: the
// tree must stay lint-clean (the same gate `make lint` enforces).
func TestSelfClean(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, mod, err := ModuleRoot(wd)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(root, mod, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loaded no packages")
	}
	for _, p := range pkgs {
		for _, terr := range p.TypeErrors {
			t.Errorf("%s does not type-check: %v", p.Path, terr)
		}
	}
	for _, f := range RunAll(All(), pkgs) {
		t.Errorf("repository is not lint-clean: %s", f.String())
	}
}
