package main

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/experiment"
)

// joinWriter is a -serve run's stdout: when the coordinator prints its
// "join workers with" line, join receives the address.
type joinWriter struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	join func(addr string)
}

func (w *joinWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	const prefix = "join workers with: ronsim -sweep -worker "
	for _, line := range strings.Split(string(p), "\n") {
		if addr, ok := strings.CutPrefix(line, prefix); ok && w.join != nil {
			w.join(addr)
			w.join = nil
		}
	}
	return w.buf.Write(p)
}

// TestServeFleetMatchesSingleRun drives the CLI's coordinator path end
// to end: the same grid runs once locally and once as -serve with two
// in-process workers, joined at the address the coordinator prints, and
// every artifact the sweep writes — per-cell figures, checksummed
// snapshots, merged tables, the manifest — must be byte-identical
// between the two output directories.
func TestServeFleetMatchesSingleRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs sweep campaigns twice")
	}
	single, fleet := t.TempDir(), t.TempDir()
	ronsim(t, 0, testSweepArgs(single)...)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	stdout := &joinWriter{join: func(addr string) {
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := experiment.RunWorker(ctx, addr, fmt.Sprintf("w%d", i), nil); err != nil {
					t.Errorf("worker %d: %v", i, err)
				}
			}()
		}
	}}
	var stderr bytes.Buffer
	if code := run(testSweepArgs(fleet, "-serve", "127.0.0.1:0", "-lease", "2s"), stdout, &stderr); code != 0 {
		t.Fatalf("ronsim -serve: exit %d\nstderr: %s", code, stderr.String())
	}
	wg.Wait()

	diffTrees(t, "fleet output", readTree(t, single), readTree(t, fleet))
}
