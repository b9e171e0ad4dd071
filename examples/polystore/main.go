// The polystore example: TPC-H query 5 over data scattered across three
// storage systems — LINEITEM and ORDERS on the DFS, CUSTOMER/REGION/
// SUPPLIER in the relational store, NATION on the local file system. The
// optimizer keeps the store-resident scans (and the pushed-down region
// filter) in the store and runs the joins where it is cheapest, moving only
// what must move.
package main

import (
	"fmt"
	"log"
	"os"

	"rheem"
	"rheem/apps/datacivilizer"
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
	dir, err := os.MkdirTemp("", "polystore-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	db := datagen.GenTPCH(0.5, 11)
	lay, err := datacivilizer.LoadPolystore(ctx, db, dir)
	if err != nil {
		return err
	}
	sz := db.Sizes()
	fmt.Printf("polystore: lineitem(%d)+orders(%d) on DFS, customer(%d)/region/supplier in the store, nation on local FS\n",
		sz["lineitem"], sz["orders"], sz["customer"])

	// Show the cross-platform plan before running.
	b, _ := datacivilizer.BuildQ5(ctx, lay, "ASIA", 100)
	ep, err := ctx.Optimize(b.Plan())
	if err != nil {
		return err
	}
	fmt.Printf("Q5 planned across platforms: %v\n\n", ep.Platforms())

	rows, err := datacivilizer.RunQ5(ctx, lay, "ASIA", 100)
	if err != nil {
		return err
	}
	fmt.Println("Q5 (revenue per ASIA nation, one order year):")
	for _, r := range rows {
		fmt.Printf("  %-12s %14.2f\n", r.Nation, r.Revenue)
	}
	return nil
}
