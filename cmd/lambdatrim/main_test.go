package main

import (
	"strings"
	"testing"

	"repro/internal/debloat"
	"repro/internal/profiler"
)

// TestParseModes: every valid -scoring and -granularity value maps to its
// mode, and anything else — including "statement", the word the run header
// prints for stmt granularity — is rejected with the valid values named.
func TestParseModes(t *testing.T) {
	for _, tc := range []struct {
		scoring, granularity string
		wantScoring          profiler.Scoring
		wantGranularity      debloat.Granularity
		wantErr              string // substring of the error; "" when valid
	}{
		{"combined", "attr", profiler.Combined, debloat.AttrGranularity, ""},
		{"time", "stmt", profiler.TimeOnly, debloat.StmtGranularity, ""},
		{"memory", "attr", profiler.MemoryOnly, debloat.AttrGranularity, ""},
		{"random", "stmt", profiler.Random, debloat.StmtGranularity, ""},
		{"combined", "statement", 0, 0, "(want attr|stmt)"},
		{"combined", "bogus", 0, 0, "(want attr|stmt)"},
		{"combined", "", 0, 0, "(want attr|stmt)"},
		{"statement", "attr", 0, 0, "(want combined|time|memory|random)"},
		{"bogus", "stmt", 0, 0, "(want combined|time|memory|random)"},
		{"", "attr", 0, 0, "(want combined|time|memory|random)"},
	} {
		s, g, err := parseModes(tc.scoring, tc.granularity)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("parseModes(%q, %q) error = %v, want one containing %q",
					tc.scoring, tc.granularity, err, tc.wantErr)
			}
			continue
		}
		if err != nil || s != tc.wantScoring || g != tc.wantGranularity {
			t.Errorf("parseModes(%q, %q) = %v, %v, %v; want %v, %v",
				tc.scoring, tc.granularity, s, g, err, tc.wantScoring, tc.wantGranularity)
		}
	}
}
