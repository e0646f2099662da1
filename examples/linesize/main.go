// Line size study: reproduce the paper's §7 experiment — spatial locality
// and false sharing as the cache line grows from 8 to 256 bytes. Programs
// with good spatial locality benefit from long lines (prefetching);
// programs with interleaved fine-grain sharing suffer false sharing.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"strings"

	"splash2"
)

func main() {
	appsFlag := flag.String("apps", "lu,radix,barnes", "comma-separated programs")
	procs := flag.Int("p", 8, "processors")
	flag.Parse()

	e, err := splash2.NewEngine(splash2.EngineOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer e.Close()
	// The request's defaults are the paper's: 1 MB caches, 8–256 B lines.
	res, err := e.Do(context.Background(), splash2.Request{
		Kind:  splash2.KindLineSize,
		Apps:  strings.Split(*appsFlag, ","),
		Procs: *procs,
		Scale: "sweep",
	}, nil)
	if err != nil {
		log.Fatal(err)
	}
	for _, pts := range res.LineSize {
		app := pts[0].App
		fmt.Printf("%s — miss decomposition vs line size (1 MB caches, %d procs)\n", app, *procs)
		fmt.Printf("  %-6s %8s %8s %8s %8s %8s\n", "line", "cold%", "cap%", "true%", "false%", "total%")
		for _, l := range pts {
			fmt.Printf("  %-6s %8.3f %8.3f %8.3f %8.3f %8.3f\n",
				fmt.Sprintf("%dB", l.LineSize), l.ColdPct, l.CapacityPct, l.TruePct, l.FalsePct, l.TotalMissPct())
		}
		first, last := pts[0], pts[len(pts)-1]
		switch {
		case last.FalsePct > 2*first.FalsePct && last.FalsePct > 0.01:
			fmt.Println("  ⇒ false sharing grows with line size: fine-grain interleaved writes")
		case last.TotalMissPct() < first.TotalMissPct():
			fmt.Println("  ⇒ good spatial locality: long lines prefetch effectively")
		default:
			fmt.Println("  ⇒ mixed behaviour")
		}
		fmt.Println()
	}
}
