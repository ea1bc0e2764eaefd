package main

import (
	"flag"
	"strings"
	"testing"

	"dice/internal/clidoc"
)

var updateFlagDocs = flag.Bool("update", false, "rewrite the README flag table from the live registrations")

// TestFlagDocsCurrent pins README's dicetrace flag table to the live flag
// registrations: the table is generated from registerFlags, so a flag
// added, renamed, or re-defaulted without regenerating the docs fails
// here. Run with -update to regenerate.
func TestFlagDocsCurrent(t *testing.T) {
	fs := flag.NewFlagSet("dicetrace", flag.ContinueOnError)
	registerFlags(fs)
	if *updateFlagDocs {
		if err := clidoc.Update("../../README.md", "dicetrace", fs); err != nil {
			t.Fatal(err)
		}
		return
	}
	if err := clidoc.Verify("../../README.md", "dicetrace", fs); err != nil {
		t.Fatalf("%v\n(regenerate with: go test ./cmd/dicetrace -run FlagDocsCurrent -update)", err)
	}
}

// TestValidateFlags pins the parse-time rejection of -samples below 1
// (0 used to panic with an integer divide by zero in the sampler, and
// a negative count wrapped to a huge unsigned one) and of a -scale the
// simulator rejects (above 18 was accepted, and from 64 the header's
// 1<<scale wrapped to "scale 1/0").
func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{name: "defaults"},
		{name: "one sample", args: []string{"-samples", "1"}},
		{name: "zero samples", args: []string{"-samples", "0"}, wantErr: "-samples"},
		{name: "negative samples", args: []string{"-samples", "-5"}, wantErr: "-samples"},
		{name: "zero scale is the default", args: []string{"-scale", "0"}},
		{name: "largest scale", args: []string{"-scale", "18"}},
		{name: "scale too large", args: []string{"-scale", "19"}, wantErr: "-scale"},
		{name: "scale wraps the shift", args: []string{"-scale", "64"}, wantErr: "-scale"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("dicetrace", flag.ContinueOnError)
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
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("validateFlags(%v) = %v, want error naming %q", tc.args, err, tc.wantErr)
			}
		})
	}
}
