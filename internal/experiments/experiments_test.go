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
		P4([]int{2000}, 20),
		P5([]int{500}),
		P6([]int{2000}, 20),
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

func TestByID(t *testing.T) {
	for _, id := range []string{"E1", "e4"} {
		if _, ok := ByID(id); !ok {
			t.Errorf("ByID(%q) failed", id)
		}
	}
	if _, ok := ByID("Z9"); ok {
		t.Error("unknown id accepted")
	}
	if len(IDs()) != 19 {
		t.Errorf("IDs = %v", IDs())
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
