package serve

import "context"

// SetExecuteForTest swaps the daemon's job executor. Test-binary only:
// the soak (package serve_test) wraps the real executor with a gate on
// its prefill jobs so backpressure engages deterministically instead of
// racing job runtime against submission rate — the simulator is now
// fast enough that real prefill jobs can drain as quickly as the
// journal-fsync'd submissions arrive.
func SetExecuteForTest(d *Daemon, fn func(ctx context.Context, spec JobSpec, emit func(StreamEvent)) (string, error)) {
	d.execute = fn
}

// NoGroupCommitForTest returns cfg with the journal in the
// fsync-per-append reference discipline (commitlog.OpenNoGroupCommit),
// the baseline the bench-smoke group-commit guard measures against.
func NoGroupCommitForTest(cfg Config) Config {
	cfg.noGroupCommit = true
	return cfg
}
