package serve

import (
	"context"
	"time"

	"dice/internal/commitlog"
)

// ExecuteForTest returns cfg with fn as the daemon's job executor, so
// tests in package serve_test can hold or gate jobs (the cancel test's
// busy worker, the soak's prefill) from before New starts the workers.
func ExecuteForTest(cfg Config, fn func(ctx context.Context, spec JobSpec, emit func(StreamEvent)) (string, error)) Config {
	cfg.execute = fn
	return cfg
}

// FixedSyncForTest returns cfg with every journal fsync padded to take
// d (commitlog.OpenForTest), so the group-commit test sees concurrent
// submits pile up behind a sync of known cost rather than however fast
// this host's fsync happens to be.
func FixedSyncForTest(cfg Config, d time.Duration) Config {
	cfg.openLog = func(path string, apply func(payload []byte) bool) (*commitlog.Log, commitlog.Replay, error) {
		return commitlog.OpenForTest(path, apply, d)
	}
	return cfg
}
