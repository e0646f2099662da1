// Traffic study: reproduce the paper's §6 experiment for a set of
// programs — the communication-to-computation behaviour as processors
// scale, decomposed into the Figure-4 categories, plus the bandwidth
// estimate the paper derives (MB/s per processor at 200 MFLOPS/MIPS).
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
	appsFlag := flag.String("apps", "fft,ocean,radix", "comma-separated programs")
	cache := flag.Int("cache", 1<<20, "cache size in bytes")
	flag.Parse()

	e, err := splash2.NewEngine(splash2.EngineOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer e.Close()
	res, err := e.Do(context.Background(), splash2.Request{
		Kind:      splash2.KindTraffic,
		Apps:      strings.Split(*appsFlag, ","),
		ProcList:  []int{1, 2, 4, 8, 16, 32},
		CacheSize: *cache,
		Scale:     "sweep",
	}, nil)
	if err != nil {
		log.Fatal(err)
	}
	for _, pts := range res.Traffic {
		app := pts[0].App
		unit := "instr"
		if pts[0].PerFlop {
			unit = "FLOP"
		}
		fmt.Printf("%s (bytes per %s, %dK caches)\n", app, unit, *cache/1024)
		fmt.Printf("  %-6s %-10s %-10s %-10s %-12s\n", "P", "remote", "local", "true-share", "MB/s @200M")
		for _, t := range pts {
			// The paper's §6 bandwidth estimate: traffic per op × issue rate.
			mbs := t.Remote() * 200e6 / 1e6
			fmt.Printf("  %-6d %-10.4f %-10.4f %-10.4f %-12.1f\n",
				t.Procs, t.Remote(), t.LocalData, t.TrueSharing, mbs)
		}
		fmt.Println()
	}
	fmt.Println("Remote traffic grows with P (finer decomposition ⇒ more boundary")
	fmt.Println("sharing) while capacity-driven local traffic falls as per-processor")
	fmt.Println("partitions start fitting in the cache — the interplay §6 describes.")
}
