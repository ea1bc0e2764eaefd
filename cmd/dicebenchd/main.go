// Command dicebenchd is the long-running experiment daemon: the batch
// evaluation of dicebench promoted to a service. It accepts experiment
// jobs over an HTTP/JSON API, runs them through a bounded queue with
// explicit backpressure, journals every job's lifecycle to a crash-safe
// append-only file, and — because simulations are pure functions of
// their configuration — re-runs interrupted jobs after a restart with
// byte-identical results.
//
// Usage:
//
//	dicebenchd                                  # listen on 127.0.0.1:8377
//	dicebenchd -addr :9000 -queue-cap 128
//	dicebenchd -journal /var/lib/dice/jobs.journal -job-workers 2
//	dicebenchd -deadline 10m -drain 30s
//
// API (see DESIGN.md §13 and §15):
//
//	POST   /jobs        {"experiments":["fig10"],"refs":60000}  → 202 {id,...}
//	GET    /jobs        all job statuses
//	GET    /jobs/{id}   one status; "output" holds the report text when done
//	GET    /jobs/{id}/stream  NDJSON cell, epoch and done events as the job runs
//	DELETE /jobs/{id}   cancel
//	GET    /healthz     self-stats (queue depth, jobs active/failed, allocs)
//	GET    /readyz      200 while admitting, 503 once draining
//
// When the queue is full, POST /jobs answers 429 with a Retry-After
// header — clients (internal/serve/client) back off and retry. SIGINT
// or SIGTERM stops admission, drains in-flight jobs for -drain, then
// exits; jobs still queued (or cut off by the drain bound) stay in the
// journal and re-run on the next start.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"dice/internal/serve"
	"dice/internal/sigctx"
)

// cliFlags holds every dicebenchd flag; registerFlags is the one
// place they are declared, shared by main and the flag-docs pin test.
type cliFlags struct {
	addr       *string
	journal    *string
	queueCap   *int
	jobWorkers *int
	refs       *int
	deadline   *time.Duration
	drain      *time.Duration
	retain     *int
	quiet      *bool
}

// registerFlags declares the dicebenchd flags on fs.
func registerFlags(fs *flag.FlagSet) *cliFlags {
	return &cliFlags{
		addr:       fs.String("addr", "127.0.0.1:8377", "listen address (host:0 picks an ephemeral port)"),
		journal:    fs.String("journal", "dicebenchd.journal", "crash-safe job journal path ('' disables persistence)"),
		queueCap:   fs.Int("queue-cap", 64, "queued-job bound; submissions beyond it get 429 + Retry-After"),
		jobWorkers: fs.Int("job-workers", 1, "jobs run concurrently (each job fans out its own simulations)"),
		refs:       fs.Int("refs", 60_000, "default measured references per core for specs that omit refs"),
		deadline:   fs.Duration("deadline", 0, "default per-job deadline for specs that omit one (0 = none)"),
		drain:      fs.Duration("drain", 30*time.Second, "graceful-shutdown bound: how long to let in-flight jobs finish"),
		retain:     fs.Int("retain-outputs", 256, "terminal jobs whose output bytes stay in memory (older ones remain in the journal)"),
		quiet:      fs.Bool("q", false, "suppress per-job log lines"),
	}
}

func main() {
	o := registerFlags(flag.CommandLine)
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run owns the daemon lifecycle so every exit path flows through one
// return (and main maps it to the exit code).
func run(o *cliFlags) error {
	if *o.queueCap <= 0 {
		return fmt.Errorf("-queue-cap must be positive, got %d", *o.queueCap)
	}
	if *o.jobWorkers <= 0 {
		return fmt.Errorf("-job-workers must be positive, got %d", *o.jobWorkers)
	}
	if *o.refs <= 0 {
		return fmt.Errorf("-refs must be positive, got %d", *o.refs)
	}
	drain, quiet := *o.drain, *o.quiet
	logf := func(format string, args ...any) {
		if !quiet {
			fmt.Printf(format+"\n", args...)
		}
	}

	d, replay, err := serve.New(serve.Config{
		JournalPath:     *o.journal,
		QueueCap:        *o.queueCap,
		JobWorkers:      *o.jobWorkers,
		DefaultRefs:     *o.refs,
		DefaultDeadline: *o.deadline,
		RetainOutputs:   *o.retain,
		Logf:            logf,
	})
	if err != nil {
		return err
	}
	if replay != nil && len(replay.Jobs) > 0 {
		rerun := 0
		for _, rj := range replay.Jobs {
			if rj.Unfinished() {
				rerun++
			}
		}
		fmt.Printf("dicebenchd: journal replayed %d jobs (%d re-enqueued)\n", len(replay.Jobs), rerun)
	}

	bound, err := d.Start(*o.addr)
	if err != nil {
		return err
	}
	// The smoke harness (and humans) scrape this line for the bound
	// port when -addr ends in :0.
	fmt.Printf("dicebenchd: listening on %s\n", bound)

	ctx, stop := sigctx.WithShutdown(context.Background())
	defer stop()
	<-ctx.Done()
	fmt.Printf("dicebenchd: shutdown signal received, draining for up to %v\n", drain)

	dctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := d.Shutdown(dctx); err != nil {
		return fmt.Errorf("dicebenchd: %w", err)
	}
	fmt.Println("dicebenchd: clean shutdown")
	return nil
}
