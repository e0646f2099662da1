package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"splash2/internal/cli"
	"splash2/internal/memsys"
)

// trace verify: integrity audit for stored containers.
//
// Spilled traces are reused across processes and survive crashes, so a
// reader must be able to prove a file is intact before replaying it.
// verify performs the full check offline: the SHA-256 the sidecar
// records must match the container bytes, and every block must decode
// with a header that agrees with the index footer (the same
// cross-checks the streaming replayer applies lazily, applied eagerly
// to the whole file). Exit 0 means every container checked out; exit 3
// reports the damaged ones.

// sidecarSum is the slice of the engine's sidecar JSON verify needs.
type sidecarSum struct {
	TraceSum string `json:"traceSum"`
}

func verify(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("trace verify", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("i", "", "trace container to verify")
	dir := fs.String("dir", "", "spill directory: verify every container/sidecar pair in it")
	if err := fs.Parse(args); err != nil {
		return cli.ExitUsage
	}
	if (*in == "") == (*dir == "") {
		fmt.Fprintln(stderr, "trace verify: exactly one of -i or -dir required")
		return cli.ExitUsage
	}

	var files []string
	if *in != "" {
		files = []string{*in}
	} else {
		entries, err := os.ReadDir(*dir)
		if err != nil {
			return fail(stderr, err)
		}
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".sp2t") {
				files = append(files, filepath.Join(*dir, e.Name()))
			}
		}
		sort.Strings(files)
		if len(files) == 0 {
			fmt.Fprintf(stdout, "verify: no containers under %s\n", *dir)
			return cli.ExitOK
		}
	}

	bad := 0
	for _, path := range files {
		desc, err := verifyContainer(path)
		if err != nil {
			fmt.Fprintf(stderr, "trace verify: %s: %v\n", path, err)
			bad++
			continue
		}
		fmt.Fprintf(stdout, "verify: %s ok (%s)\n", path, desc)
	}
	if bad > 0 {
		fmt.Fprintf(stderr, "trace verify: %d of %d container(s) failed\n", bad, len(files))
		return cli.ExitRuntime
	}
	return cli.ExitOK
}

// verifyContainer checks one container end to end and describes what
// was proven ("sidecar sha256 + 214 blocks", "no sidecar, 12 blocks").
func verifyContainer(path string) (string, error) {
	var proofs []string

	// Sidecar first: the recorded SHA-256 must match the container
	// bytes. A missing sidecar is reported but not fatal for a bare -i
	// file (containers written by `trace record` have none); inside a
	// spill dir the engine always writes the pair, and a lone container
	// there would already have been reaped by the orphan sweep.
	sidecar := path + ".json"
	if data, err := os.ReadFile(sidecar); err == nil {
		var sc sidecarSum
		if err := json.Unmarshal(data, &sc); err != nil {
			return "", fmt.Errorf("sidecar %s: %v", sidecar, err)
		}
		sum, err := fileSHA256(path)
		if err != nil {
			return "", err
		}
		if sc.TraceSum != sum {
			return "", fmt.Errorf("sidecar sha256 mismatch: container %s, sidecar records %s", sum, sc.TraceSum)
		}
		proofs = append(proofs, "sidecar sha256")
	} else {
		proofs = append(proofs, "no sidecar")
	}

	format, err := sniffFormat(path)
	if err != nil {
		return "", err
	}
	if format == "v1" {
		// Flat streams have no per-block structure: a full decode is the
		// strongest check available.
		tr, err := readTrace(path, nil)
		if err != nil {
			return "", err
		}
		proofs = append(proofs, fmt.Sprintf("v1 full decode, %d events", tr.Len()))
		return strings.Join(proofs, " + "), nil
	}

	// v2: decode every block independently. DecodeBlock cross-checks
	// each block's own header against the index footer (proc, epoch,
	// event count, payload length, address bound); on top of that the
	// footer's totals must agree with the sum of its entries.
	tf, err := memsys.OpenTraceFile(path, nil)
	if err != nil {
		return "", err
	}
	defer tf.Close()
	index := tf.Index()
	var refs, markers uint64
	for i := range index {
		if _, err := tf.DecodeBlock(i); err != nil {
			return "", err
		}
		if index[i].Marker {
			markers++
		} else {
			refs += uint64(index[i].Events)
		}
	}
	meta := tf.Meta()
	if refs != meta.Refs || markers != meta.Markers {
		return "", fmt.Errorf("index footer totals (refs=%d markers=%d) disagree with block sum (refs=%d markers=%d)",
			meta.Refs, meta.Markers, refs, markers)
	}
	proofs = append(proofs, fmt.Sprintf("%d blocks, %d events", len(index), refs+markers))
	return strings.Join(proofs, " + "), nil
}

// fileSHA256 hashes a file's contents to lowercase hex.
func fileSHA256(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
