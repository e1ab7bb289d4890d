package experiments

import (
	"strings"
	"testing"
)

// TestPaperArtifacts runs every paper-artifact experiment and
// requires PASS: together these reproduce Table 1, the Figure-1
// facts, the Figure-2 schema, Remark 1's 4/3, the Section-4 queries
// and the Section-5 Piet-QL pipeline.
func TestPaperArtifacts(t *testing.T) {
	for _, r := range []Report{E1(), E2(), E3(), E4(), E5(), E6()} {
		if !r.Pass {
			t.Errorf("%s failed:\n%s", r.ID, r)
		}
	}
}

func TestE4Details(t *testing.T) {
	r := E4()
	if !strings.Contains(r.Body, "4/3") || !strings.Contains(r.Body, "1.3333") {
		t.Errorf("E4 body missing the Remark-1 value:\n%s", r.Body)
	}
}

// TestPerformanceStudiesSmall runs the P-experiments at tiny sizes to
// keep the suite fast while checking they execute and produce tables.
func TestPerformanceStudiesSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cases := []Report{
		P1([]int{3, 4}, 5),
		P2(),
		P3([]int{20, 40}),
		P5([]int{500}),
		P7([]int{30}),
		// P10 needs the default size: tiny sample counts auto-size the
		// grid too coarse for any cell to sit fully inside a polygon,
		// and the pass gate requires interior-cell hits.
		P10(0),
		P11(60),
	}
	for _, r := range cases {
		if !r.Pass {
			t.Errorf("%s failed:\n%s", r.ID, r)
		}
		if !strings.Contains(r.Body, "\t") {
			t.Errorf("%s produced no table:\n%s", r.ID, r.Body)
		}
	}
}

// TestByID checks the registry without running every experiment: ids
// are unique and in run order, lookup is case-insensitive, and the
// retired experiments are unknown.
func TestByID(t *testing.T) {
	ids := IDs()
	if len(ids) != 16 || ids[0] != "E1" || ids[len(ids)-1] != "A1" {
		t.Errorf("IDs = %v", ids)
	}
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Errorf("duplicate id %q", id)
		}
		seen[id] = true
	}
	for _, id := range []string{"e4", " E1 "} {
		if _, ok := Run(id, false); !ok {
			t.Errorf("Run(%q) failed", id)
		}
	}
	for _, id := range []string{"P4", "P6", "P12", "Z9"} {
		if _, ok := Run(id, false); ok {
			t.Errorf("retired or unknown id %q accepted", id)
		}
	}
}

func TestReportString(t *testing.T) {
	r := Report{ID: "X", Title: "t", Body: "b\n", Pass: true}
	if !strings.Contains(r.String(), "[PASS]") {
		t.Error("missing PASS")
	}
	r.Pass = false
	if !strings.Contains(r.String(), "[FAIL]") {
		t.Error("missing FAIL")
	}
}
