package serve

import (
	"context"
	"time"

	"dice/internal/commitlog"
)

// SetExecuteForTest swaps the daemon's job executor. Test-binary only:
// the soak (package serve_test) wraps the real executor with a gate on
// its prefill jobs so backpressure engages deterministically instead of
// racing job runtime against submission rate — the simulator is now
// fast enough that real prefill jobs can drain as quickly as the
// journal-fsync'd submissions arrive.
func SetExecuteForTest(d *Daemon, fn func(ctx context.Context, spec JobSpec, emit func(StreamEvent)) (string, error)) {
	d.execute = fn
}

// FixedSyncForTest returns cfg with every journal fsync padded to take
// d (commitlog.OpenForTest), in the group-commit discipline or, with
// noGroupCommit, the fsync-per-append reference one — so the
// group-commit guard measures batching against a known sync cost
// rather than however fast this host's fsync happens to be.
func FixedSyncForTest(cfg Config, noGroupCommit bool, d time.Duration) Config {
	cfg.openLog = func(path string, apply func(payload []byte) bool) (*commitlog.Log, commitlog.Replay, error) {
		return commitlog.OpenForTest(path, apply, noGroupCommit, d)
	}
	return cfg
}
