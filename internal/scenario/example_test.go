package scenario_test

import (
	"context"

	"fmt"
	"log"

	"mogis/internal/fo"
	"mogis/internal/scenario"
)

// The paper's motivating query end to end: build the running example
// and evaluate "number of buses per hour in the morning in the
// Antwerp neighborhoods with a monthly income of less than 1500
// euro" — Remark 1's 4/3.
func Example() {
	s := scenario.New()
	rel, err := s.Engine.RegionC(context.Background(), s.MotivatingFormula(), []fo.Var{"o", "t"})
	if err != nil {
		log.Fatal(err)
	}
	rate, err := s.MotivatingResult(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("|C| = %d tuples\n", rel.Len())
	fmt.Printf("buses per hour = %.4f\n", rate)
	// Output:
	// |C| = 4 tuples
	// buses per hour = 1.3333
}
