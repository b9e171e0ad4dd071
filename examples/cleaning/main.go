// The data cleaning example: BigDansing's denial-constraint detection on
// the Tax dataset. The rule — no one may earn more yet pay less tax —
// compiles through Scope/Detect onto the IEJoin operator, which turns the
// quadratic pair space into a sort-based join.
package main

import (
	"fmt"
	"log"

	"rheem"
	"rheem/apps/bigdansing"
	"rheem/internal/core"
	"rheem/internal/datagen"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// run is the example; main exits only after it returns, so the context
// (and its temporary DFS directory) is closed on every path.
func run() error {
	ctx, err := rheem.NewContext(rheem.Config{})
	if err != nil {
		return err
	}
	defer ctx.Close()

	records := datagen.TaxRecords(5000, 0.01, 3)
	rule := bigdansing.DenialConstraint{
		IDCol: datagen.TaxColID,
		ColA:  datagen.TaxColSalary, OpA: core.Greater,
		ColB: datagen.TaxColTax, OpB: core.Less,
		BlockCol: -1,
	}

	violations, err := bigdansing.Detect(ctx, datagen.AnySlice(records), rule)
	if err != nil {
		return err
	}
	fmt.Printf("scanned %d tax records, found %d violating pairs\n", len(records), len(violations))
	for i, v := range violations {
		if i >= 5 {
			fmt.Printf("  ... (%d more)\n", len(violations)-5)
			break
		}
		fmt.Printf("  person %d (salary %.0f, tax %.0f) vs person %d (salary %.0f, tax %.0f)\n",
			v.A.Int(datagen.TaxColID), v.A.Float(datagen.TaxColSalary), v.A.Float(datagen.TaxColTax),
			v.B.Int(datagen.TaxColID), v.B.Float(datagen.TaxColSalary), v.B.Float(datagen.TaxColTax))
	}

	fixes := bigdansing.GenFixes(rule, violations)
	repaired := bigdansing.ApplyFixes(records, datagen.TaxColID, fixes)
	after, err := bigdansing.Detect(ctx, datagen.AnySlice(repaired), rule)
	if err != nil {
		return err
	}
	fmt.Printf("after one repair pass: %d violating pairs remain\n", len(after))
	return nil
}
