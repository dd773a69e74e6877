package repro

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/experiment"
	"repro/internal/coord"
	"repro/internal/core"
)

// TestGoldenSweepDigestsFleet is the coordinator's strongest claim made
// falsifiable: the exact golden grid (the one TestGoldenSweepDigests locks)
// runs on an in-process worker fleet under deliberate fault injection —
// one worker killed after computing its first cell without uploading,
// one that never heartbeats and stalls its first cell until it has been
// re-dispatched, then delivers it late, one healthy worker uploading
// everything twice — and every rendered merged table must equal the
// committed goldens a single-process run locked. Re-dispatch, duplicate
// and late delivery, and lease expiry must be invisible in the output
// bytes.
func TestGoldenSweepDigestsFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: the golden sweep runs 32 compressed campaigns")
	}
	const ttl = time.Second
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	var (
		fleet    sync.WaitGroup
		logMu    sync.Mutex
		logLines []string
		// stalledCell is the straggler's stalled cell, published by its
		// upload hook; delivered closes when the straggler logs that
		// cell answered.
		stalledCell atomic.Pointer[string]
		delivered   = make(chan struct{})
	)
	logf := func(format string, args ...any) {
		line := fmt.Sprintf(format, args...)
		logMu.Lock()
		defer logMu.Unlock()
		logLines = append(logLines, line)
		if name := stalledCell.Load(); name != nil && strings.HasPrefix(line, "straggler: cell "+*name+" done in ") {
			close(delivered)
		}
	}
	startFleet := func(addr string) {
		// The victim runs first, alone, so it deterministically owns a
		// cell: it computes it, exits without uploading, and leaves an
		// orphaned lease the fleet recovers by expiry. The rest of the
		// fleet starts only after the victim is gone.
		var killed atomic.Bool
		victim := coord.NewWorker(addr, coord.WithName("victim"),
			coord.WithBeforeUpload(func(core.Cell) bool {
				killed.Store(true)
				return false
			}))
		if err := victim.Run(ctx); err != nil {
			t.Errorf("victim: %v", err)
		}
		if !killed.Load() {
			t.Error("victim worker got no cell; kill path untested")
		}

		// Straggler: no heartbeats, first cell stalled until /progress
		// counts it re-dispatched (the victim's cell is the other
		// re-dispatch), so its lease expires and the doubler recomputes
		// it; its late delivery then lands before the healthy copy. Only
		// the first cell stalls, to keep the test fast.
		straggler := coord.NewWorker(addr, coord.WithName("straggler"),
			coord.WithoutHeartbeats(),
			coord.WithLogf(logf),
			coord.WithBeforeUpload(func(c core.Cell) bool {
				if name := c.Name(); stalledCell.CompareAndSwap(nil, &name) {
					awaitProgress(t, ctx, addr, func(p coord.Progress) bool { return p.RedispatchedLeases >= 2 })
				}
				return true
			}))
		// The doubler holds its copy of the stalled cell, and with it
		// the end of the grid, until the straggler's late delivery is
		// answered and the straggler has asked for its next lease: the
		// coordinator then counts it live and answers it done before
		// closing. It was last seen at the grant of the cell whose lease
		// has since expired, over a TTL ago, so being seen within one
		// means a new request. The victim's cell, the lower index, is
		// re-dispatched first, so the straggler's wait for two
		// re-dispatches is over by then.
		doubler := coord.NewWorker(addr, coord.WithName("doubler"), coord.WithDuplicateUploads(),
			coord.WithBeforeUpload(func(c core.Cell) bool {
				if name := stalledCell.Load(); name != nil && c.Name() == *name {
					select {
					case <-delivered:
					case <-ctx.Done():
					}
					awaitProgress(t, ctx, addr, func(p coord.Progress) bool {
						for _, w := range p.Workers {
							if w.Name == "straggler" {
								return w.SecondsSinceSeen < ttl.Seconds()
							}
						}
						return false
					})
				}
				return true
			}))
		for _, w := range []*coord.Worker{straggler, doubler} {
			fleet.Add(1)
			go func() {
				defer fleet.Done()
				if err := w.Run(ctx); err != nil {
					t.Errorf("worker: %v", err)
				}
			}()
		}
	}

	e, err := experiment.New(goldenSweep(
		experiment.Remote("127.0.0.1:0"),
		experiment.RemoteLeaseTTL(ttl),
		experiment.RemoteContext(ctx),
		experiment.RemoteReady(func(addr string) { go startFleet(addr) }),
	)...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	fleet.Wait()

	// The late delivery reached a coordinator still serving and was
	// answered 200; the doubler's copy, held for it, is the duplicate.
	name := stalledCell.Load()
	if name == nil {
		t.Fatal("straggler got no cell; late-delivery path untested")
	}
	select {
	case <-delivered:
	default:
		t.Errorf("straggler's late delivery of %s was not answered 200:\n%s", *name, strings.Join(logLines, ""))
	}
	checkGolden(t, "sweep", sweepGoldens(res))
}

// awaitProgress polls the coordinator's /progress until done holds, or
// ctx ends.
func awaitProgress(t *testing.T, ctx context.Context, addr string, done func(coord.Progress) bool) {
	for ctx.Err() == nil {
		resp, err := http.Get("http://" + addr + coord.PathProgress)
		if err != nil {
			t.Errorf("polling /progress: %v", err)
			return
		}
		var p coord.Progress
		err = json.NewDecoder(resp.Body).Decode(&p)
		resp.Body.Close()
		if err != nil {
			t.Errorf("decoding /progress: %v", err)
			return
		}
		if done(p) {
			return
		}
		time.Sleep(time.Millisecond)
	}
}
