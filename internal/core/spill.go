package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"splash2/internal/memsys"
)

// Trace spilling: a recording is its v2 bytes, and those bytes go to an
// on-disk container as soon as the execution that recorded them
// finishes; the record pick hands its consumers a memsys.Trace over the
// file, so a memoized recording never holds its bytes in memory while
// its sweeps run. Replay jobs (Figure 3, Figure 7–8) stream the file
// block by block.
//
// Containers are content-addressed by the trace identity (the same key
// space as every derived replay, SuiteVersion included), so a later
// process on the same cache directory reuses a container the way it
// reuses cached replay results; an uncached engine spills into a
// private directory that lives as long as it does. A reused file must
// be *verified*, not trusted: a sidecar JSON carries the container's
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
			continue // temp files and strangers are the cache's business
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
}

// spillPaths returns the container and sidecar paths for a trace key.
func (e *Engine) spillPaths(key string) (trace, sidecar string) {
	base := filepath.Join(e.spillDir, key)
	return base + ".sp2t", base + ".sp2t.json"
}

// spilled reports whether key's container is on disk and matches the
// SHA-256 its sidecar states. Any inconsistency — missing files, corrupt
// JSON, hash mismatch — reads as false, never an error: spilling must
// degrade to re-recording.
func (e *Engine) spilled(key string) bool {
	tracePath, sidecarPath := e.spillPaths(key)
	raw, err := os.ReadFile(sidecarPath)
	if err != nil {
		return false
	}
	var sc spillSidecar
	if err := json.Unmarshal(raw, &sc); err != nil {
		return false
	}
	f, err := os.Open(tracePath)
	if err != nil {
		return false
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return false
	}
	return hex.EncodeToString(h.Sum(nil)) == sc.TraceSum
}

// loadSpilled opens key's container once spilled has verified it; an
// unreadable container reads as a miss too.
func (e *Engine) loadSpilled(key string) (*memsys.Trace, bool) {
	if !e.spilled(key) {
		return nil, false
	}
	tracePath, _ := e.spillPaths(key)
	tf, err := memsys.OpenTraceFile(tracePath, e.fault)
	return tf, err == nil
}

// spill serves key's verified container: the one its execution wrote
// (exec.go), or an earlier run's. Failing that, it writes the recording
// record returns and serves a Trace over the file, so the recording
// leaves memory. The container never enters the result cache; it is the
// cached artifact.
func (e *Engine) spill(key string, record func() (*memsys.Trace, error)) (*memsys.Trace, error) {
	if out, ok := e.loadSpilled(key); ok {
		return out, nil
	}
	rec, err := record()
	if err != nil {
		return nil, err
	}
	if err := e.writeSpilled(key, rec); err != nil {
		return nil, err
	}
	out, ok := e.loadSpilled(key)
	if !ok {
		// A concurrent writer replaced the pair between our renames, or
		// a read fault struck; serve the recording in hand.
		return rec, nil
	}
	return out, nil
}

// writeSpilled writes the v2 bytes of tr and their SHA-256 to the
// container and sidecar paths of key, atomically (tmp + rename,
// container first so a sidecar never describes a missing file).
func (e *Engine) writeSpilled(key string, tr *memsys.Trace) error {
	tracePath, sidecarPath := e.spillPaths(key)
	h := sha256.New()
	if err := e.writeAtomic(tracePath, key+".tmp*", func(w io.Writer) error {
		_, err := tr.WriteV2(io.MultiWriter(w, h))
		return err
	}); err != nil {
		return fmt.Errorf("core: spilling trace: %w", err)
	}
	raw, err := json.Marshal(spillSidecar{TraceSum: hex.EncodeToString(h.Sum(nil))})
	if err == nil {
		err = e.writeAtomic(sidecarPath, key+".json.tmp*", func(w io.Writer) error {
			_, err := w.Write(raw)
			return err
		})
	}
	if err != nil {
		return fmt.Errorf("core: spilling trace sidecar: %w", err)
	}
	return nil
}

// writeAtomic writes path through a temporary file of the engine's temp
// directory (the cache's tmp/, where the open-time sweep finds an
// orphan), renamed into place only when every write succeeded.
func (e *Engine) writeAtomic(path, pattern string, write func(io.Writer) error) error {
	f, err := os.CreateTemp(e.tmpDir, pattern)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}
