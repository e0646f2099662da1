// Working sets: reproduce the paper's §5 methodology for one program —
// sweep cache size at several associativities, locate the knees in the
// miss-rate curve, and show which operating points are worth simulating.
// This is the experiment behind Figure 3 and Table 2.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"splash2"
)

func main() {
	app := flag.String("app", "ocean", "program to analyze")
	procs := flag.Int("p", 8, "processors")
	flag.Parse()

	e, err := splash2.NewEngine(splash2.EngineOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer e.Close()
	sizes := splash2.DefaultCacheSizes()
	res, err := e.Do(context.Background(), splash2.Request{
		Kind:       splash2.KindWorkingSets,
		Apps:       []string{*app},
		Procs:      *procs,
		CacheSizes: sizes,
		Assocs:     []int{1, 2, 4, splash2.FullyAssoc},
		Scale:      "sweep",
	}, nil)
	if err != nil {
		log.Fatal(err)
	}
	curves := res.MissCurves

	fmt.Printf("Miss rate vs cache size for %s (%d procs, 64 B lines)\n\n", *app, *procs)
	fmt.Printf("%-8s", "size")
	for _, c := range curves {
		label := fmt.Sprintf("%d-way", c.Assoc)
		if c.Assoc == splash2.FullyAssoc {
			label = "full"
		}
		fmt.Printf("%10s", label)
	}
	fmt.Println()
	for i, cs := range sizes {
		fmt.Printf("%-8s", fmt.Sprintf("%dK", cs/1024))
		for _, c := range curves {
			fmt.Printf("%9.2f%%", c.MissRate[i])
		}
		fmt.Println()
	}

	// Knee detection: the most important working set.
	fmt.Println()
	for _, c := range curves {
		knee, drop := c.Knee()
		if knee == 0 {
			continue
		}
		if c.Assoc == 4 {
			fmt.Printf("4-way knee at %dK (miss rate drops %.2f points): the most\n", knee/1024, drop)
			fmt.Println("important working set fits there — cache sizes below it are the")
			fmt.Println("interesting simulation points; sizes above are redundant (§5).")
		}
	}
}
