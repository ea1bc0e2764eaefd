package main

import (
	"flag"
	"strings"
	"testing"

	"dice/internal/clidoc"
)

var updateFlagDocs = flag.Bool("update", false, "rewrite the README flag table from the live registrations")

// TestFlagDocsCurrent pins README's dicesweep flag table to the live flag
// registrations: the table is generated from registerFlags, so a flag
// added, renamed, or re-defaulted without regenerating the docs fails
// here. Run with -update to regenerate.
func TestFlagDocsCurrent(t *testing.T) {
	fs := flag.NewFlagSet("dicesweep", flag.ContinueOnError)
	registerFlags(fs)
	if *updateFlagDocs {
		if err := clidoc.Update("../../README.md", "dicesweep", fs); err != nil {
			t.Fatal(err)
		}
		return
	}
	if err := clidoc.Verify("../../README.md", "dicesweep", fs); err != nil {
		t.Fatalf("%v\n(regenerate with: go test ./cmd/dicesweep -run FlagDocsCurrent -update)", err)
	}
}

// TestValidateFlags pins the parse-time rejection of flag values the
// flag types allow but the sweep cannot use: a negative -workers used
// to mean "one per CPU" silently, and a negative -batch or
// -shard-deadline failed every sharded job at the daemon.
func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{name: "defaults"},
		{name: "serial workers", args: []string{"-workers", "1"}},
		{name: "sharding knobs", args: []string{"-batch", "64", "-shard-deadline", "30s"}},
		{name: "metrics pair", args: []string{"-metrics-epoch", "500", "-metrics-out", "e.ndjson"}},
		{name: "negative workers", args: []string{"-workers", "-3"}, wantErr: "-workers"},
		{name: "negative batch", args: []string{"-batch", "-1"}, wantErr: "-batch"},
		{name: "negative shard deadline", args: []string{"-shard-deadline", "-1s"}, wantErr: "-shard-deadline"},
		{name: "negative log linger", args: []string{"-log-linger", "-1ms"}, wantErr: "-log-linger"},
		{name: "zero log batch", args: []string{"-log-batch-bytes", "0"}, wantErr: "-log-batch-bytes"},
		{name: "metrics epoch alone", args: []string{"-metrics-epoch", "500"}, wantErr: "-metrics-epoch"},
		{name: "metrics out alone", args: []string{"-metrics-out", "e.ndjson"}, wantErr: "-metrics-out"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("dicesweep", flag.ContinueOnError)
			opts := registerFlags(fs)
			if err := fs.Parse(tc.args); err != nil {
				t.Fatal(err)
			}
			err := validateFlags(opts)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("validateFlags(%v) = %v, want nil", tc.args, err)
				}
				return
			}
			if err == nil {
				t.Fatalf("validateFlags(%v) = nil, want error mentioning %q", tc.args, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not name the offending flag %q", err, tc.wantErr)
			}
		})
	}
}
