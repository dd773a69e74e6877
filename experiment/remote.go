package experiment

// This file is the builder's remote-execution face: the same
// experiment that runs a grid in-process can instead serve it to a
// worker fleet over HTTP. Remote(addr) turns Run into a coordinator —
// it expands the grid once, leases cells to workers with heartbeat
// renewal and straggler re-dispatch, validates and persists delivered
// snapshots, and folds each into its group as it lands — and RunWorker
// is the matching client loop. Because per-cell seeds derive from grid
// coordinates, a fleet's merged output is byte-identical to a local Run
// of the same experiment, whatever the worker count or failure
// schedule.

import (
	"context"
	"net"
	"time"

	"repro/internal/coord"
	"repro/internal/core"
)

// Remote makes Run serve the experiment's grid to a worker fleet on
// addr ("host:port"; ":0" or "host:0" picks a free port — observe it
// with RemoteReady) instead of computing cells in-process. Sharding
// (Shard), resumption (Resume), output persistence (Output), and the
// Progress hook all apply exactly as they do locally.
func Remote(addr string) Option {
	return func(e *Experiment) error {
		e.remote = true
		e.remoteAddr = addr
		return nil
	}
}

// RemoteReady installs a callback invoked with the coordinator's bound
// listen address once it is accepting workers — how tests and callers
// using port 0 learn the real port.
func RemoteReady(fn func(addr string)) Option {
	return func(e *Experiment) error {
		e.remoteReady = fn
		return nil
	}
}

// RemoteLeaseTTL sets the cell lease lifetime (default: one minute).
// Workers heartbeat at a third of it; a worker silent for a full TTL
// forfeits its cell to the next asking worker.
func RemoteLeaseTTL(d time.Duration) Option {
	return func(e *Experiment) error {
		e.remoteTTL = d
		return nil
	}
}

// RemoteContext bounds a remote Run: when ctx ends, the coordinator
// shuts down and Run returns ctx's error. The default waits
// indefinitely for the fleet to finish the grid.
func RemoteContext(ctx context.Context) Option {
	return func(e *Experiment) error {
		e.remoteCtx = ctx
		return nil
	}
}

// RunWorker joins the fleet served by the coordinator at url and works
// cells until the coordinator answers that the sweep is done, ctx ends,
// or the coordinator becomes unreachable. logf, when non-nil, receives
// per-cell progress lines.
func RunWorker(ctx context.Context, url, name string, logf func(format string, args ...any)) error {
	opts := []coord.WorkerOption{coord.WithLogf(logf)}
	if name != "" {
		opts = append(opts, coord.WithName(name))
	}
	return coord.NewWorker(url, opts...).Run(ctx)
}

// runRemote is Run's coordinator path: serve the grid, wait for the
// fleet to finish it and hear that it is done (or for the context),
// shut down gracefully, and return the same SweepResult shape a local
// run produces.
func (e *Experiment) runRemote(s *core.Sweep) (*core.SweepResult, error) {
	c, err := coord.New(coord.Config{
		Sweep:    s,
		LeaseTTL: e.remoteTTL,
		OutDir:   e.outDir,
		Results:  e.store,
	})
	if err != nil {
		return nil, err
	}
	srv := coord.NewServer(c)
	ln, err := net.Listen("tcp", e.remoteAddr)
	if err != nil {
		return nil, err
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	if e.remoteReady != nil {
		e.remoteReady(ln.Addr().String())
	}

	ctx := e.remoteCtx
	if ctx == nil {
		ctx = context.Background()
	}
	var runErr error
	select {
	case <-c.Done():
		c.WaitFleet(ctx)
	case <-ctx.Done():
		runErr = ctx.Err()
	case err := <-serveErr:
		runErr = err
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	srv.Shutdown(shutCtx)
	if runErr != nil {
		return nil, runErr
	}
	if err := c.Err(); err != nil {
		return nil, err
	}
	return c.Result(), nil
}
