package experiment

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/coord"
	"repro/internal/core"
)

func remoteTestOptions(extra ...Option) []Option {
	return append([]Option{
		Datasets(RONnarrow),
		Days(0.01),
		Seed(11),
		Replicas(2),
		AxisValues("hysteresis", "0", "0.25"),
	}, extra...)
}

// TestRemoteRunMatchesLocal: the same experiment run in-process and as
// a coordinator with one worker produces the same SweepResult — merged
// aggregator state (compared through the rendered per-group reports),
// selection and reuse counts, every cell's flags and probe counters,
// every group's shape — both for a whole grid and for a shard resumed
// from a prior run's snapshots, where cells are reused, computed and
// skipped side by side.
func TestRemoteRunMatchesLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("runs sweep campaigns twice")
	}
	// The prior run persists group 0 (cells 0 and 1); the resumed shard
	// then reuses those, computes cell 2, and skips cell 3.
	prior := t.TempDir()
	first, err := New(remoteTestOptions(Shard("0-1"), Output(prior))...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := first.Run(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name             string
		opts             []Option
		selected, reused int
	}{
		{"whole grid", nil, 4, 0},
		{"resumed shard", []Option{Shard("0-2"), Resume(prior)}, 3, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			local, err := New(remoteTestOptions(tc.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			want, err := local.Run()
			if err != nil {
				t.Fatal(err)
			}
			if want.Selected != tc.selected || want.Reused != tc.reused {
				t.Fatalf("local run selected/reused %d/%d, want %d/%d", want.Selected, want.Reused, tc.selected, tc.reused)
			}

			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			var wg sync.WaitGroup
			remote, err := New(remoteTestOptions(append(tc.opts,
				Remote("127.0.0.1:0"),
				RemoteLeaseTTL(2*time.Second),
				RemoteContext(ctx),
				RemoteReady(func(addr string) {
					wg.Add(1)
					go func() {
						defer wg.Done()
						if err := RunWorker(ctx, addr, "w1", nil); err != nil && !errors.Is(err, context.Canceled) {
							t.Errorf("worker: %v", err)
						}
					}()
				}),
			)...)...)
			if err != nil {
				t.Fatal(err)
			}
			got, err := remote.Run()
			if err != nil {
				t.Fatal(err)
			}
			// The coordinator answered the worker done before returning.
			wg.Wait()
			requireSameResult(t, want, got)
			if got.Parallel != 1 {
				t.Errorf("remote run reports %d workers, want 1", got.Parallel)
			}
		})
	}
}

// requireSameResult compares a remote SweepResult with the local one
// field by field, except Wall and Parallel, which measure the run.
func requireSameResult(t *testing.T, want, got *core.SweepResult) {
	t.Helper()
	if got.Selected != want.Selected || got.Reused != want.Reused {
		t.Errorf("remote selected/reused %d/%d, local %d/%d", got.Selected, got.Reused, want.Selected, want.Reused)
	}
	if len(got.Cells) != len(want.Cells) || len(got.Groups) != len(want.Groups) {
		t.Fatalf("remote run has %d cells in %d groups, local %d in %d",
			len(got.Cells), len(got.Groups), len(want.Cells), len(want.Groups))
	}
	for i := range want.Cells {
		w, g := &want.Cells[i], &got.Cells[i]
		if w.Cell.Name() != g.Cell.Name() || w.Skipped != g.Skipped || w.Cached != g.Cached || (w.Res == nil) != (g.Res == nil) {
			t.Fatalf("cell %d: remote %s skipped=%v cached=%v res=%v, local %s skipped=%v cached=%v res=%v", i,
				g.Cell.Name(), g.Skipped, g.Cached, g.Res != nil, w.Cell.Name(), w.Skipped, w.Cached, w.Res != nil)
		}
		if w.Res != nil && (w.Res.RONProbes != g.Res.RONProbes || w.Res.MeasureProbes != g.Res.MeasureProbes ||
			w.Res.RouteChanges != g.Res.RouteChanges) {
			t.Errorf("cell %s: remote probe counters differ from local", w.Cell.Name())
		}
	}
	for gi := range want.Groups {
		w, g := &want.Groups[gi], &got.Groups[gi]
		if w.Name() != g.Name() {
			t.Fatalf("group %d: name %s vs %s", gi, g.Name(), w.Name())
		}
		if w.Hosts != g.Hosts || !slices.Equal(w.Methods, g.Methods) || w.Complete() != g.Complete() {
			t.Errorf("group %s: remote hosts/methods/complete %d/%v/%v, local %d/%v/%v", w.Name(),
				g.Hosts, g.Methods, g.Complete(), w.Hosts, w.Methods, w.Complete())
		}
		if w.Complete() && g.Complete() && w.Merged.Report() != g.Merged.Report() {
			t.Errorf("group %s: remote merged report differs from local", w.Name())
		}
	}
}

// TestRemoteFullyReusedRunNeedsNoWorkers: a coordinator whose every
// cell restores from a prior run's snapshots completes without any
// worker ever connecting — the resume contract carried to the fleet.
func TestRemoteFullyReusedRunNeedsNoWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs sweep campaigns")
	}
	dir := t.TempDir()
	first, err := New(remoteTestOptions(Output(dir))...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := first.Run(); err != nil {
		t.Fatal(err)
	}

	resumed, err := New(remoteTestOptions(
		Resume(dir),
		Remote("127.0.0.1:0"),
	)...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := resumed.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Reused != len(res.Cells) {
		t.Errorf("reused %d of %d cells, want all", res.Reused, len(res.Cells))
	}
	for gi := range res.Groups {
		if res.Groups[gi].Merged == nil {
			t.Errorf("group %s not merged on a fully reused remote run", res.Groups[gi].Name())
		}
	}
}

// TestRemoteContextCancel: a bounded remote Run with no workers ends
// with the context's error instead of hanging.
func TestRemoteContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	e, err := New(remoteTestOptions(
		Remote("127.0.0.1:0"),
		RemoteContext(ctx),
		RemoteReady(func(string) { cancel() }),
	)...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled remote run = %v, want context.Canceled", err)
	}
}

// TestRemoteResumeReloadsEachSnapshotOnce is what `ronsim -sweep -serve
// -resume -out d` builds: a coordinator whose resume and output
// directories are one. Over a d holding one valid and one truncated
// snapshot it reads each file once: the valid cell is reused once and
// counted in /progress's reusedCells, and the truncated one costs a
// recompute and exactly one warning, which names the file.
func TestRemoteResumeReloadsEachSnapshotOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("runs sweep campaigns")
	}
	dir := t.TempDir()
	first, err := New(remoteTestOptions(Shard("0-1"), Output(dir))...)
	if err != nil {
		t.Fatal(err)
	}
	prior, err := first.Run()
	if err != nil {
		t.Fatal(err)
	}
	torn := core.CellSnapshotPath(dir, prior.Cells[1].Cell.Name())
	data, err := os.ReadFile(torn)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(torn, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var (
		warns    []string
		progress coord.Progress
		wg       sync.WaitGroup
	)
	e, err := New(remoteTestOptions(
		Shard("0-1"),
		Resume(dir),
		Output(dir),
		Warn(func(format string, args ...any) { warns = append(warns, fmt.Sprintf(format, args...)) }),
		Remote("127.0.0.1:0"),
		RemoteContext(ctx),
		RemoteReady(func(addr string) {
			resp, err := http.Get("http://" + addr + coord.PathProgress)
			if err != nil {
				t.Error(err)
			} else {
				if err := json.NewDecoder(resp.Body).Decode(&progress); err != nil {
					t.Error(err)
				}
				resp.Body.Close()
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := RunWorker(ctx, addr, "w1", nil); err != nil && !errors.Is(err, context.Canceled) {
					t.Errorf("worker: %v", err)
				}
			}()
		}),
	)...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	cancel()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(warns) != 1 || !strings.Contains(warns[0], "ignoring unusable snapshot") || !strings.Contains(warns[0], torn) {
		t.Errorf("warnings %q, want exactly one naming %s", warns, torn)
	}
	if progress.ReusedCells != 1 || progress.DoneCells != 1 {
		t.Errorf("/progress before any worker: reused %d done %d, want 1/1", progress.ReusedCells, progress.DoneCells)
	}
	if res.Reused != 1 || !res.Cells[0].Cached || res.Cells[1].Cached {
		t.Errorf("reused %d, cached %v/%v; want the valid cell alone reused",
			res.Reused, res.Cells[0].Cached, res.Cells[1].Cached)
	}
	if _, err := readSnapshot(torn); err != nil {
		t.Errorf("recomputed cell not persisted over the torn file: %v", err)
	}
}
