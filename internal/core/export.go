package core

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// Export encoders: the paper shipped an online database of
// characterization results behind an interactive graphing tool; these
// CSV/JSON exporters are the equivalent machine-readable surface for the
// regenerated results.

// Results bundles one full characterization for export.
type Results struct {
	Procs       int               `json:"procs"`
	Table1      []Table1Row       `json:"table1,omitempty"`
	Speedups    []SpeedupCurve    `json:"speedups,omitempty"`
	Sync        []SyncProfile     `json:"sync,omitempty"`
	MissCurves  []MissCurve       `json:"missCurves,omitempty"`
	Sampled     []SampledCurve    `json:"sampled,omitempty"`
	Table2      []Table2Row       `json:"table2,omitempty"`
	Traffic     [][]TrafficPoint  `json:"traffic,omitempty"`
	Table3      []Table3Row       `json:"table3,omitempty"`
	LineSize    [][]LineSizePoint `json:"lineSize,omitempty"`
	PruneAdvice []PruneAdvice     `json:"pruneAdvice,omitempty"`

	// Failures is the failure manifest of a keep-going run that lost
	// experiments; empty on a clean run.
	Failures []FailureRecord `json:"failures,omitempty"`

	// figure5 and figure6 hold the report-only sections; export omits
	// them.
	figure5, figure6 [][]TrafficPoint
}

// WriteJSON emits the results as indented JSON.
func (r *Results) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteCSV emits the results as sectioned CSV: each section starts with a
// `#section <name>` line followed by a header row and data rows.
func (r *Results) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	section := func(name string, header []string) error {
		cw.Flush()
		if err := cw.Error(); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "#section %s\n", name); err != nil {
			return err
		}
		return cw.Write(header)
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', 8, 64) }
	u := func(v uint64) string { return strconv.FormatUint(v, 10) }
	d := func(v int) string { return strconv.Itoa(v) }

	if err := section("table1", []string{"app", "instr", "flops", "reads", "writes", "sharedReads", "sharedWrites", "barriersPerProc", "locks", "pauses"}); err != nil {
		return err
	}
	for _, t := range r.Table1 {
		if t.Failed != "" {
			continue
		}
		if err := cw.Write([]string{t.App, u(t.Instr), u(t.Flops), u(t.Reads), u(t.Writes), u(t.SharedReads), u(t.SharedWrites), u(t.BarriersPerProc), u(t.Locks), u(t.Pauses)}); err != nil {
			return err
		}
	}

	if err := section("speedups", []string{"app", "procs", "speedup"}); err != nil {
		return err
	}
	for _, c := range r.Speedups {
		if c.Failed != "" {
			continue
		}
		for i, p := range c.Procs {
			if err := cw.Write([]string{c.App, d(p), f(c.Speedup[i])}); err != nil {
				return err
			}
		}
	}

	if err := section("sync", []string{"app", "minPct", "avgPct", "maxPct"}); err != nil {
		return err
	}
	for _, s := range r.Sync {
		if s.Failed != "" {
			continue
		}
		if err := cw.Write([]string{s.App, f(s.MinPct), f(s.AvgPct), f(s.MaxPct)}); err != nil {
			return err
		}
	}

	if err := section("missCurves", []string{"app", "assoc", "cacheSize", "missRatePct"}); err != nil {
		return err
	}
	for _, c := range r.MissCurves {
		if c.Failed != "" {
			continue
		}
		for i, cs := range c.CacheSizes {
			if err := cw.Write([]string{c.App, d(c.Assoc), d(cs), f(c.MissRate[i])}); err != nil {
				return err
			}
		}
	}

	if len(r.Sampled) > 0 {
		if err := section("sampled", []string{"app", "cacheSize", "rate", "effRate", "seed", "exactLines", "missRatePct", "bandLoPct", "bandHiPct"}); err != nil {
			return err
		}
		for _, c := range r.Sampled {
			if c.Failed != "" {
				continue
			}
			for i, cs := range c.CacheSizes {
				if err := cw.Write([]string{c.App, d(cs), f(c.Rate), f(c.EffRate), u(c.SampleSeed), d(c.ExactLines), f(c.MissRate[i]), f(c.BandLo[i]), f(c.BandHi[i])}); err != nil {
					return err
				}
			}
		}
	}

	if err := section("traffic", []string{"app", "procs", "perFlop", "remoteShared", "remoteCold", "remoteCapacity", "remoteWriteback", "remoteOverhead", "localData", "trueSharing"}); err != nil {
		return err
	}
	for _, pts := range r.Traffic {
		for _, t := range pts {
			if t.Failed != "" {
				continue
			}
			if err := cw.Write([]string{t.App, d(t.Procs), strconv.FormatBool(t.PerFlop), f(t.RemoteShared), f(t.RemoteCold), f(t.RemoteCapacity), f(t.RemoteWriteback), f(t.RemoteOverhead), f(t.LocalData), f(t.TrueSharing)}); err != nil {
				return err
			}
		}
	}

	if err := section("lineSize", []string{"app", "lineSize", "coldPct", "capacityPct", "truePct", "falsePct", "upgradePct", "remoteData", "remoteOverhead", "localData"}); err != nil {
		return err
	}
	for _, pts := range r.LineSize {
		for _, l := range pts {
			if l.Failed != "" {
				continue
			}
			if err := cw.Write([]string{l.App, d(l.LineSize), f(l.ColdPct), f(l.CapacityPct), f(l.TruePct), f(l.FalsePct), f(l.UpgradePct), f(l.RemoteData), f(l.RemoteOverhead), f(l.LocalData)}); err != nil {
				return err
			}
		}
	}

	if len(r.Failures) > 0 {
		if err := section("failures", []string{"label", "key", "panicked", "timedOut", "skipped", "cause"}); err != nil {
			return err
		}
		for _, rec := range r.Failures {
			if err := cw.Write([]string{rec.Label, rec.Key, strconv.FormatBool(rec.Panicked), strconv.FormatBool(rec.TimedOut), strconv.FormatBool(rec.Skipped), rec.Cause}); err != nil {
				return err
			}
		}
	}

	cw.Flush()
	return cw.Error()
}
