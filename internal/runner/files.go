package runner

import (
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"

	"splash2/internal/memsys"
)

// File entries. A recording (fileType: the form is chosen by type, as the
// codec is) is its own entry file, <cache-dir>/traces/<key>.sp2t, served
// as a memsys.Trace over its verified payload and kept open until Close;
// else it is a result like any other: probed, leased, waited on, and,
// as its job finishes, written out, so the memo never holds its bytes.
var fileType = reflect.TypeFor[*memsys.Trace]()

func filePath(root string, k Key) string {
	return filepath.Join(root, "traces", k.String()+".sp2t")
}

// load serves j from what is stored for its key: the cache entry, or for
// a trace the memo (see Store; all a private directory holds) or the file.
func (r *Runner) load(ctx context.Context, j *job) (any, bool) {
	c := r.opts.Cache
	if !j.file {
		return c.Get(ctx, j.key, j.codec.decode)
	}
	if v, ok := r.memoGet(j.key); ok || c == nil {
		return v, ok
	}
	return r.openFile(ctx, j.key, filePath(c.dir, j.key))
}

// openFile serves k from the verified file entry at path, memoized, under
// the "cache.get:<key>" and "trace.read*" fault points; failure is a miss.
func (r *Runner) openFile(ctx context.Context, k Key, path string) (any, bool) {
	if r.opts.Fault.Do(ctx, "cache.get:"+k.String()) != nil {
		return nil, false
	}
	payload, f, err := OpenEntry(path)
	if err != nil {
		return nil, false
	}
	var tr *memsys.Trace
	if err = r.opts.Fault.Do(ctx, "trace.read"); err == nil {
		tr, err = memsys.NewTraceFile(payload, payload.Size(), r.opts.Fault)
	}
	if err != nil {
		f.Close()
		return nil, false
	}
	r.fileMu.Lock()
	r.files = append(r.files, f) // kept open even if another graph memoized k first
	r.fileMu.Unlock()
	return r.memoPut(k, tr), true
}

// storeFile writes tr as k's file entry and serves it from the file, so it
// leaves memory; a failed write or reopen serves tr (best-effort, as Put).
func (r *Runner) storeFile(ctx context.Context, k Key, tr *memsys.Trace) any {
	root, tmp, err := r.fileRoot()
	path := filePath(root, k)
	if err == nil {
		err = os.MkdirAll(filepath.Dir(path), 0o755)
	}
	if err == nil {
		err = WriteEntry(tmp, path, func(w io.Writer) error {
			_, err := tr.WriteV2(w)
			return err
		})
	}
	if err == nil {
		if v, ok := r.openFile(ctx, k, path); ok {
			return v
		}
	}
	return tr
}

// fileRoot returns where file entries and their temp files go: the cache,
// or a private 0700 directory an uncached runner makes on first use.
// There is none after Close.
func (r *Runner) fileRoot() (root, tmp string, err error) {
	r.fileMu.Lock()
	defer r.fileMu.Unlock()
	switch c := r.opts.Cache; {
	case r.closed:
		return "", "", os.ErrClosed
	case c != nil:
		return c.dir, c.tmp, nil
	case r.private == "":
		r.private, err = os.MkdirTemp("", "splash2-spill-")
	}
	return r.private, r.private, err
}

// Store gives the trace job j its value ahead of its run, for a job that
// records it as a by-product (core's program executions): the trace is
// stored and memoized at once, and j is served from it when it runs.
func Store(ctx context.Context, g *Graph, j Job[*memsys.Trace], tr *memsys.Trace) {
	g.r.memoPut(j.j.key, g.r.storeFile(ctx, j.j.key, tr))
}

// Close closes the files the memo's traces read and removes an uncached
// runner's private directory, ending the runner's life. Idempotent.
func (r *Runner) Close() error {
	r.fileMu.Lock()
	defer r.fileMu.Unlock()
	if r.closed {
		return nil
	}
	r.closed = true
	var err error
	for _, f := range r.files {
		err = errors.Join(err, f.Close())
	}
	if r.private != "" {
		err = errors.Join(err, os.RemoveAll(r.private))
	}
	return err
}
