// Quickstart: build the paper's running example and evaluate the
// motivating query of Section 1.2 — "number of buses per hour in the
// morning in the Antwerp neighborhoods with a monthly income of less
// than 1500 euro" — reproducing Remark 1's answer of 4/3.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"

	"fmt"
	"log"

	"mogis/internal/fo"
	"mogis/internal/scenario"
)

func main() {
	// The scenario packages Figure 1 (the city and the six buses),
	// Figure 2 (the GIS dimension schema) and Table 1 (the MOFT).
	s := scenario.New()

	fmt.Println("=== Table 1: the moving-object fact table ===")
	fmt.Println(s.FMbus)

	fmt.Println("=== Figure 2: the GIS dimension schema ===")
	fmt.Print(s.GIS.Schema().Describe())
	fmt.Println()

	// The motivating query's region C is a first-order formula over
	// the MOFT, the geometric rollup r^{Pt,Pg}_Ln, the attribute
	// function α^{neighb,Pg}_Ln, the Time-dimension rollup
	// R^timeOfDay_timeId, and the income attribute (Section 3.1).
	formula := s.MotivatingFormula()
	rel, err := s.Engine.RegionC(context.Background(), formula, []fo.Var{"o", "t"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== Region C: (Oid, t) pairs satisfying the condition ===")
	fmt.Print(rel)
	fmt.Println()

	// The aggregation divides |C| by the morning time span (3 hours).
	rate, err := s.MotivatingResult(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("buses per hour in the morning in low-income neighborhoods: %.4f\n", rate)
	fmt.Println("(Remark 1 of the paper: 4/3 = 1.3333 — O1 contributes three times, O2 once)")
}
