package dse

import (
	"encoding/json"
	"fmt"

	"dice/internal/commitlog"
	"dice/internal/serve"
)

// The results log is the sweep's checkpoint: one completed cell per
// line, appended the moment the cell finishes, in the same
// crash-tolerant format as the daemon journal — "crc8hex space json",
// CRC-32C over the payload. Durability rides internal/commitlog's
// group commit: concurrent shard consumers enqueue cells and share one
// write+fsync per batch, and an acknowledged append has still always
// been synced. Replay accepts the longest valid prefix and truncates
// the rest, so a sweep killed mid-append (or a daemon shard that died
// after delivering half a batch) leaves a log that -resume can trust:
// every replayed cell ran to completion, and every missing cell
// re-runs. Duplicate keys — possible when a retried batch re-delivers
// cells — replay first-wins; determinism makes the duplicates
// byte-identical anyway.

// ResultLog is the append handle for a sweep's results log, over the
// shared commit log. Safe for concurrent use.
type ResultLog struct {
	log *commitlog.Log
}

// LogReplay is what an existing results log parses back into.
type LogReplay struct {
	// Results holds the replayed cells keyed by canonical cell key,
	// first occurrence winning.
	Results map[string]serve.CellResult
	// Cells counts valid lines replayed (duplicates included).
	Cells int
	// TruncatedBytes counts bytes dropped as a torn or corrupt tail.
	TruncatedBytes int64
}

// OpenResultLog opens (creating if absent) the results log at path,
// replays its valid prefix, truncates any torn tail, and returns the
// handle positioned for appending plus the replayed results.
func OpenResultLog(path string) (*ResultLog, *LogReplay, error) {
	rep := &LogReplay{Results: map[string]serve.CellResult{}}
	l, crep, err := commitlog.Open(path, func(payload []byte) bool {
		var res serve.CellResult
		if err := json.Unmarshal(payload, &res); err != nil || res.Key == "" {
			return false
		}
		rep.Cells++
		if _, dup := rep.Results[res.Key]; !dup {
			rep.Results[res.Key] = res
		}
		return true
	})
	if err != nil {
		return nil, nil, fmt.Errorf("dse: results log: %w", err)
	}
	rep.TruncatedBytes = crep.TruncatedBytes
	return &ResultLog{log: l}, rep, nil
}

// Append checkpoints one completed cell, returning once the sync
// covering it has succeeded — batched with whatever other cells are
// in flight. An acknowledged append survives power loss. A nil log
// (dry runs) is a no-op.
func (l *ResultLog) Append(res serve.CellResult) error {
	if l == nil {
		return nil
	}
	payload, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("dse: results log: %w", err)
	}
	if err := l.log.Append(payload); err != nil {
		return fmt.Errorf("dse: results log: %w", err)
	}
	return nil
}

// Stats snapshots the log's group-commit counters; nil for a nil log.
func (l *ResultLog) Stats() *commitlog.Stats {
	if l == nil {
		return nil
	}
	st := l.log.Stats()
	return &st
}

// Close drains pending appends, syncs, and closes the log file,
// reporting both the sync and close outcomes (errors.Join). A nil log
// is a no-op.
func (l *ResultLog) Close() error {
	if l == nil {
		return nil
	}
	if err := l.log.Close(); err != nil {
		return fmt.Errorf("dse: results log: %w", err)
	}
	return nil
}
