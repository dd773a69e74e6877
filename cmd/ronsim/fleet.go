package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/signal"

	"repro/experiment"
)

// runWorkerMode joins the fleet at url: fetch the coordinator's grid
// manifest, re-expand it locally, and lease-compute-upload cells until
// the sweep drains. Ctrl-C stops cleanly; any cell mid-flight simply
// loses its lease and re-dispatches to another worker.
func runWorkerMode(stdout io.Writer, url, name string) error {
	if name == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		name = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	fmt.Fprintf(stdout, "worker %s joining coordinator at %s\n", name, url)
	return experiment.RunWorker(ctx, url, name, func(format string, args ...any) {
		fmt.Fprintf(stdout, format, args...)
	})
}
