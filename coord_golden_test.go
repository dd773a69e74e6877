package repro

import (
	"context"
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
// one that never heartbeats and stalls its first cell past the lease
// TTL so it re-dispatches and double-delivers, one healthy worker
// uploading everything twice — and every rendered merged table must
// equal the committed goldens a single-process run locked. Re-dispatch,
// duplicate delivery, and lease expiry must be invisible in the output
// bytes.
func TestGoldenSweepDigestsFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: the golden sweep runs 32 compressed campaigns")
	}
	const ttl = time.Second
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	var fleet sync.WaitGroup
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

		// Straggler: no heartbeats, first cell stalled past the TTL so
		// its lease expires mid-compute and the cell re-dispatches; its
		// late delivery then races the healthy copy. Only the first cell
		// stalls, to keep the test fast.
		var stalled atomic.Bool
		straggler := coord.NewWorker(addr, coord.WithName("straggler"),
			coord.WithoutHeartbeats(),
			coord.WithBeforeUpload(func(core.Cell) bool {
				if stalled.CompareAndSwap(false, true) {
					time.Sleep(2 * ttl)
				}
				return true
			}))
		doubler := coord.NewWorker(addr, coord.WithName("doubler"), coord.WithDuplicateUploads())
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

	checkGolden(t, "sweep", sweepGoldens(res))
}
