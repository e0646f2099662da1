package core

import (
	"fmt"
	"io"
	"text/tabwriter"

	"splash2/internal/mach"
)

// Table1Row is the instruction breakdown of one program (paper Table 1):
// instructions executed decomposed into floating point operations, reads
// and writes (total and shared), plus synchronization operation counts —
// barriers per processor, locks and pauses across all processors.
type Table1Row struct {
	App             string
	Instr           uint64
	Flops           uint64
	Reads, Writes   uint64
	SharedReads     uint64
	SharedWrites    uint64
	BarriersPerProc uint64
	Locks           uint64
	Pauses          uint64

	// Failed is the FAILED(label: cause) placeholder when this program's
	// run was lost in a keep-going characterization; the counters are
	// meaningless then.
	Failed string `json:"failed,omitempty"`
}

// table1 takes every program's counters at its problem size on
// req.Procs processors (count-only picks: PRAM timing is identical and
// Table 1 needs no cache simulation). The picks are shared with Figures
// 1–2.
func (b *batch) table1(req Request) fill {
	jobs := b.countRuns(req, req.Procs)
	return func(res *Results) error {
		for i, name := range req.Apps {
			run, failed, err := degrade(b.e, jobs[i])
			if err != nil {
				return err
			}
			if failed != "" {
				res.Table1 = append(res.Table1, Table1Row{App: name, Failed: failed})
				continue
			}
			a := mach.Aggregate(run.Stats.Procs)
			res.Table1 = append(res.Table1, Table1Row{
				App:             name,
				Instr:           a.Instr,
				Flops:           a.Flops,
				Reads:           a.Reads,
				Writes:          a.Writes,
				SharedReads:     a.SharedReads,
				SharedWrites:    a.SharedWrites,
				BarriersPerProc: a.Barriers / uint64(req.Procs),
				Locks:           a.Locks,
				Pauses:          a.Pauses,
			})
		}
		return nil
	}
}

// RenderTable1 prints the rows in the paper's column layout.
func RenderTable1(w io.Writer, rows []Table1Row) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Code\tTotal Instr\tTotal FLOPS\tTotal Reads\tTotal Writes\tShared Reads\tShared Writes\tBarriers\tLocks\tPauses")
	for _, r := range rows {
		if r.Failed != "" {
			fmt.Fprintf(tw, "%s\t%s\n", r.App, r.Failed)
			continue
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
			r.App, r.Instr, r.Flops, r.Reads, r.Writes, r.SharedReads, r.SharedWrites,
			r.BarriersPerProc, r.Locks, r.Pauses)
	}
	tw.Flush()
}
