package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"splash2/internal/mach"
	"splash2/internal/memsys"
	"splash2/internal/runner"
)

// Trace spilling: with EngineOptions.SpillTraces, a record job streams
// the recorded reference stream into an on-disk columnar v2 container
// and hands its consumers an out-of-core memsys.TraceFile instead of
// the in-memory event array. Replay jobs (Figure 3, Figure 7–8)
// consume TraceSource and stream block by block, so the
// engine's peak memory for a sweep drops from O(trace) to O(block
// buffer) — the difference between running paper-scale inputs on a
// small box or not at all.
//
// Spilled containers are content-addressed by the trace identity (the
// same key space as every derived replay, SuiteVersion included), so a
// later process reuses a spilled trace the way it reuses cached replay
// results. A reused file must be *verified*, not trusted: a sidecar
// JSON carries the recording run's counters plus the container's
// SHA-256, and a reader that finds a mismatched hash (concurrent writer,
// torn update, corruption) re-records instead of replaying the wrong
// bytes.

// spillOrphanAge guards the open-time orphan sweep: writeSpilled renames
// the container before the sidecar, so a live concurrent writer presents
// an unpaired container for a moment. Only pairs broken for longer than
// this are crash debris. An explicit resume sweeps with age 0 — the dead
// process is known dead.
const spillOrphanAge = time.Hour

// sweepSpillOrphans removes the halves of broken container/sidecar pairs
// older than age from a spill directory: a container without a sidecar
// can never be verified and will never be read; a sidecar without its
// container describes nothing. loadSpilled already treats both as
// misses, so the sweep reclaims disk, not correctness. Returns the
// removed paths; best-effort on I/O errors.
func sweepSpillOrphans(dir string, age time.Duration) (removed []string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	present := make(map[string]bool, len(entries))
	for _, e := range entries {
		if !e.IsDir() {
			present[e.Name()] = true
		}
	}
	now := time.Now() //splash:allow determinism sweep age check; file janitor, never reaches results
	oldEnough := func(name string) bool {
		info, err := os.Stat(filepath.Join(dir, name))
		return err == nil && now.Sub(info.ModTime()) > age
	}
	for _, e := range entries { // ReadDir order: sorted, deterministic
		name := e.Name()
		var partner string
		switch {
		case strings.HasSuffix(name, ".sp2t.json"):
			partner = strings.TrimSuffix(name, ".json")
		case strings.HasSuffix(name, ".sp2t"):
			partner = name + ".json"
		default:
			continue // temp files and strangers are sweepTmp's business
		}
		if present[partner] || !oldEnough(name) {
			continue
		}
		path := filepath.Join(dir, name)
		if os.Remove(path) == nil {
			removed = append(removed, path)
		}
	}
	return removed
}

// spillSidecar is the JSON sidecar of one spilled trace container.
type spillSidecar struct {
	// TraceSum is the hex SHA-256 of the container file.
	TraceSum string `json:"traceSum"`
	// Stats are the recording run's counters (the recordstats source).
	Stats mach.Stats `json:"stats"`
}

// spillPaths returns the container and sidecar paths for a trace key.
func (e *Engine) spillPaths(key string) (trace, sidecar string) {
	base := filepath.Join(e.spillDir, key)
	return base + ".sp2t", base + ".sp2t.json"
}

// recordSpillJob schedules one trace recording that spills to disk
// (kind "recordv2"). Like recordJob it is lazy and never enters the
// result cache itself — the container on disk *is* the cached artifact.
func (e *Engine) recordSpillJob(g *runner.Graph, id traceIdent) runner.Job[recordOut] {
	key := runner.KeyOf("recordv2", id)
	name := key.String()
	return runner.Submit(g, runner.Spec{
		Label:   fmt.Sprintf("recordv2 %s p=%d", id.App, id.Procs),
		Key:     key,
		Lazy:    true,
		NoStore: true,
	}, func(ctx context.Context) (recordOut, error) {
		if out, ok := e.loadSpilled(name); ok {
			return out, nil
		}
		tr, st, err := RecordApp(id.App, id.Procs, id.Opts)
		if err != nil {
			return recordOut{}, err
		}
		if err := e.writeSpilled(name, tr, st); err != nil {
			return recordOut{}, err
		}
		out, ok := e.loadSpilled(name)
		if !ok {
			// A concurrent writer replaced the pair between our renames;
			// fall back to the trace in hand.
			return recordOut{Trace: tr, Stats: st}, nil
		}
		return out, nil
	})
}

// loadSpilled opens a previously spilled container after verifying its
// sidecar hash. Any inconsistency — missing files, corrupt JSON, hash
// mismatch, unreadable container — reads as a miss, never an error:
// spilling must degrade to re-recording.
func (e *Engine) loadSpilled(key string) (recordOut, bool) {
	tracePath, sidecarPath := e.spillPaths(key)
	raw, err := os.ReadFile(sidecarPath)
	if err != nil {
		return recordOut{}, false
	}
	var sc spillSidecar
	if err := json.Unmarshal(raw, &sc); err != nil {
		return recordOut{}, false
	}
	f, err := os.Open(tracePath)
	if err != nil {
		return recordOut{}, false
	}
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		f.Close()
		return recordOut{}, false
	}
	f.Close()
	if hex.EncodeToString(h.Sum(nil)) != sc.TraceSum {
		return recordOut{}, false
	}
	tf, err := memsys.OpenTraceFile(tracePath, e.fault)
	if err != nil {
		return recordOut{}, false
	}
	return recordOut{Trace: tf, Stats: sc.Stats}, true
}

// writeSpilled streams the trace into a v2 container plus sidecar,
// atomically (tmp + rename, container first so a sidecar never
// describes a missing file).
func (e *Engine) writeSpilled(key string, tr *memsys.Trace, st mach.Stats) error {
	tracePath, sidecarPath := e.spillPaths(key)
	f, err := os.CreateTemp(e.spillDir, key+".tmp*")
	if err != nil {
		return fmt.Errorf("core: spilling trace: %w", err)
	}
	h := sha256.New()
	_, werr := tr.WriteV2(io.MultiWriter(f, h))
	cerr := f.Close()
	if werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(f.Name(), tracePath)
	}
	if werr != nil {
		os.Remove(f.Name())
		return fmt.Errorf("core: spilling trace: %w", werr)
	}
	raw, err := json.Marshal(spillSidecar{TraceSum: hex.EncodeToString(h.Sum(nil)), Stats: st})
	if err != nil {
		return fmt.Errorf("core: spilling trace sidecar: %w", err)
	}
	sf, err := os.CreateTemp(e.spillDir, key+".json.tmp*")
	if err != nil {
		return fmt.Errorf("core: spilling trace sidecar: %w", err)
	}
	_, werr = sf.Write(raw)
	cerr = sf.Close()
	if werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(sf.Name(), sidecarPath)
	}
	if werr != nil {
		os.Remove(sf.Name())
		return fmt.Errorf("core: spilling trace sidecar: %w", werr)
	}
	return nil
}
