package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"splash2/internal/cli"
)

// trace verify: integrity audit for stored containers.
//
// An engine's recordings are reused across processes and survive
// crashes, so a reader must be able to prove a file is intact before
// replaying it. verify performs the full check offline: an engine
// entry's payload must match the SHA-256 in its header, and every block
// must decode with a header that agrees with the index footer (the same
// cross-checks the streaming replayer applies lazily, applied eagerly
// to the whole file). Exit 0 means every container checked out; exit 3
// reports the damaged ones.

func verify(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("trace verify", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("i", "", "trace container to verify")
	dir := fs.String("dir", "", "an engine's trace directory: verify every container in it")
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
// was proven ("entry sha256 + 214 blocks, ...", "no entry checksum +
// 12 blocks, ...").
func verifyContainer(path string) (string, error) {
	// An engine's entry is verified on open: a checksum mismatch is the
	// error. A bare container (trace record's output) has no checksum.
	t, err := openTrace(path)
	if err != nil {
		return "", err
	}
	defer t.Close()
	proofs := []string{"no entry checksum"}
	if t.entry {
		proofs[0] = "entry sha256"
	}

	if t.format == "v1" {
		// Flat streams have no per-block structure: a full decode is the
		// strongest check available.
		tr, err := t.decode(nil)
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
	tf, err := t.stream(nil)
	if err != nil {
		return "", err
	}
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
