package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"splash2/internal/cli"
	"splash2/internal/core"
)

func TestUsageErrors(t *testing.T) {
	cases := [][]string{
		{"-bogus"},
		{"-mode", "live"}, // no such flag: one execution path
		{"-no-cache", "-cache-dir", "/tmp/x"},
		{"-fault", "???"},
		{"stray-arg"},
	}
	for _, args := range cases {
		var stderr bytes.Buffer
		if code := run(context.Background(), args, io.Discard, &stderr); code != cli.ExitUsage {
			t.Errorf("run(%q) = %d, want %d (stderr: %s)", args, code, cli.ExitUsage, stderr.String())
		}
	}
}

func TestListenFailure(t *testing.T) {
	var stderr bytes.Buffer
	if code := run(context.Background(), []string{"-addr", "256.0.0.1:0"}, io.Discard, &stderr); code != cli.ExitRuntime {
		t.Errorf("bad addr: run = %d, want %d (stderr: %s)", code, cli.ExitRuntime, stderr.String())
	}
}

// syncBuffer is a bytes.Buffer safe to read while the daemon goroutine
// writes it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// bootDaemon starts the daemon on an ephemeral port and returns its base
// URL plus a stop func that cancels the context and waits for exit.
func bootDaemon(t *testing.T, args ...string) (url string, stop func() int) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	stdoutR, stdoutW := io.Pipe()
	var stderr syncBuffer

	code := make(chan int, 1)
	go func() {
		code <- run(ctx, append([]string{"-addr", "127.0.0.1:0", "-no-cache"}, args...), stdoutW, &stderr)
	}()

	sc := bufio.NewScanner(stdoutR)
	if !sc.Scan() {
		cancel()
		t.Fatalf("daemon produced no boot line (stderr: %s)", stderr.String())
	}
	line := sc.Text()
	const prefix = "splashd: listening on "
	if !strings.HasPrefix(line, prefix) {
		cancel()
		t.Fatalf("boot line %q", line)
	}
	url = "http://" + strings.TrimPrefix(line, prefix)

	return url, func() int {
		cancel()
		select {
		case c := <-code:
			return c
		case <-time.After(30 * time.Second):
			t.Fatal("daemon did not exit after cancel")
			return -1
		}
	}
}

func TestDaemonSmoke(t *testing.T) {
	url, stop := bootDaemon(t)

	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	// Cold experiment over the wire.
	req := core.Request{Kind: core.KindTable1, Apps: []string{"fft"}, Procs: 2, Scale: "default"}
	body, _ := json.Marshal(req)
	resp, err = http.Post(url+"/v1/experiments", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	payload, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("experiment = %d: %s", resp.StatusCode, payload)
	}
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("no ETag on experiment response")
	}
	var res core.Results
	if err := json.Unmarshal(payload, &res); err != nil {
		t.Fatalf("payload not Results JSON: %v", err)
	}
	if len(res.Table1) != 1 || res.Table1[0].App != "fft" {
		t.Fatalf("unexpected result: %+v", res.Table1)
	}

	// Warm revalidation: 304, no body.
	hr, _ := http.NewRequest(http.MethodPost, url+"/v1/experiments", bytes.NewReader(body))
	hr.Header.Set("If-None-Match", etag)
	resp, err = http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified || len(b) != 0 {
		t.Fatalf("revalidation = %d with %d body bytes, want bare 304", resp.StatusCode, len(b))
	}

	// Graceful shutdown on signal (context cancel stands in for SIGTERM;
	// main wires NotifyContext to the same path).
	if code := stop(); code != cli.ExitOK {
		t.Errorf("shutdown exit = %d, want %d", code, cli.ExitOK)
	}
}

func TestDaemonMetrics(t *testing.T) {
	url, stop := bootDaemon(t)
	defer stop()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"engine", "coalescing", "queue", "endpoints"} {
		if _, ok := m[key]; !ok {
			t.Errorf("metrics missing %q block", key)
		}
	}
}
