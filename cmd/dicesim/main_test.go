package main

import (
	"strings"
	"testing"
)

// TestValidateFlags pins the parse-time rejection of flag values the
// flag types allow but the runtime can't use: -metrics-epoch 0 used to
// panic inside obs.NewRecorder, and a negative -workers silently meant
// "one per CPU".
func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name         string
		metricsEpoch uint64
		workers      int
		wantErr      string
	}{
		{name: "defaults", metricsEpoch: 100_000, workers: 0},
		{name: "serial workers", metricsEpoch: 100_000, workers: 1},
		{name: "many workers", metricsEpoch: 1, workers: 64},
		{name: "zero epoch", metricsEpoch: 0, workers: 0, wantErr: "-metrics-epoch"},
		{name: "negative workers", metricsEpoch: 100_000, workers: -1, wantErr: "-workers"},
		{name: "very negative workers", metricsEpoch: 100_000, workers: -100, wantErr: "-workers"},
		{name: "both invalid reports epoch first", metricsEpoch: 0, workers: -1, wantErr: "-metrics-epoch"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateFlags(tc.metricsEpoch, tc.workers)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("validateFlags(%d, %d) = %v, want nil", tc.metricsEpoch, tc.workers, err)
				}
				return
			}
			if err == nil {
				t.Fatalf("validateFlags(%d, %d) = nil, want error mentioning %q", tc.metricsEpoch, tc.workers, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not name the offending flag %q", err, tc.wantErr)
			}
		})
	}
}
