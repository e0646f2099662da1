package core

import (
	"bytes"
	"strings"
	"testing"
)

func TestPruneFindsKneeAndFlatRegion(t *testing.T) {
	c := MissCurve{
		App:        "synthetic",
		CacheSizes: []int{1024, 2048, 4096, 8192, 16384, 32768},
		MissRate:   []float64{20, 19.8, 5, 4.9, 4.95, 4.9},
	}
	adv := Prune(c)
	if len(adv.Knees) != 1 || adv.Knees[0] != 4096 {
		t.Fatalf("knees = %v, want [4096]", adv.Knees)
	}
	// Two flat regions: {1K,2K} and {4K..32K}: representatives 1K and 4K.
	if len(adv.Representative) != 2 || adv.Representative[0] != 1024 || adv.Representative[1] != 4096 {
		t.Fatalf("representative = %v", adv.Representative)
	}
	if len(adv.Redundant) != 4 {
		t.Fatalf("redundant = %v", adv.Redundant)
	}
}

func TestPruneFlatCurve(t *testing.T) {
	c := MissCurve{
		App:        "flat",
		CacheSizes: []int{1024, 2048, 4096},
		MissRate:   []float64{3, 3, 3},
	}
	adv := Prune(c)
	if len(adv.Representative) != 1 || len(adv.Redundant) != 2 || len(adv.Knees) != 0 {
		t.Fatalf("flat curve advice: %+v", adv)
	}
}

func TestPruneEmptyCurve(t *testing.T) {
	adv := Prune(MissCurve{App: "empty"})
	if len(adv.Representative) != 0 {
		t.Fatalf("empty curve advice: %+v", adv)
	}
}

func TestPruneOnRealCurve(t *testing.T) {
	c := do(t, Request{
		Kind: KindWorkingSets, Apps: []string{"lu"}, Procs: 4,
		CacheSizes: []int{1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10},
	}).MissCurves[0]
	adv := Prune(c)
	// LU's curve has an early knee (one block) and a long flat tail: at
	// least one size must be prunable.
	if len(adv.Redundant) == 0 {
		t.Fatalf("no redundant points found for LU: %+v", adv)
	}
	if len(adv.Representative)+len(adv.Redundant) != 5 {
		t.Fatalf("representative+redundant != all points: %+v", adv)
	}
	var buf bytes.Buffer
	RenderPrune(&buf, []PruneAdvice{adv})
	if !strings.Contains(buf.String(), "lu") || !strings.Contains(buf.String(), "K") {
		t.Fatalf("render: %s", buf.String())
	}
}

func TestBandwidthEstimate(t *testing.T) {
	pt := TrafficPoint{App: "fft", Procs: 8, RemoteShared: 0.5, RemoteOverhead: 0.5, PerFlop: true}
	// 1 B/FLOP at 200 MFLOPS = 200 MB/s.
	if got := BandwidthMBs(pt, 200e6); got != 200 {
		t.Fatalf("bandwidth = %v, want 200", got)
	}
	var buf bytes.Buffer
	RenderBandwidth(&buf, [][]TrafficPoint{{pt}}, 200e6)
	if !strings.Contains(buf.String(), "200.0") {
		t.Fatalf("render: %s", buf.String())
	}
}
