// CVE sweep: reproduce the paper's Table 2 scenario — hunt every
// registry CVE across the whole corpus and print a findings table with
// ground-truth verification.
//
// Run with: go run ./examples/cvesweep [default|eval|bench]
package main

import (
	"fmt"
	"log"
	"os"

	"firmup/internal/corpus"
	"firmup/internal/eval"
	_ "firmup/internal/isa/arm"
	_ "firmup/internal/isa/mips"
	_ "firmup/internal/isa/ppc"
	_ "firmup/internal/isa/x86"
)

func main() {
	name := "default"
	if len(os.Args) > 1 {
		name = os.Args[1]
	}
	sc, err := corpus.ScaleByName(name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cvesweep:", err)
		os.Exit(2)
	}
	env, err := eval.Prepare(sc)
	if err != nil {
		log.Fatal(err)
	}
	res, err := eval.Table2(env)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Format())
	confirmed, latest := res.TotalConfirmed()
	fmt.Printf("total: %d confirmed vulnerable procedures; %d devices vulnerable at their latest firmware\n",
		confirmed, latest)
}
