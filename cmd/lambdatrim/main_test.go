package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
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

// TestDeterminism is the fleet surfaces' seed contract end to end: each
// scenario runs lambdatrim in-process at -fleet-workers 1 and 4, and stdout
// and every file it writes must be byte-identical between the two. One
// scenario reproduces alone: go test -run TestDeterminism/chaos ./cmd/lambdatrim
func TestDeterminism(t *testing.T) {
	const rules = "fleet:cost_usd:sum5m = sum(cost.usd[5m]); fleet:req:rate5m = rate(req.total[5m])"
	for _, sc := range []struct {
		name     string
		argv     []string
		files    []string            // output flags, each given a file of its own
		contains map[string][]string // artifact → substrings it must hold
	}{
		{
			name:  "fleet",
			argv:  []string{"-fleet", "-fleet-functions", "3000"},
			files: []string{"openmetrics", "flame"},
		},
		{
			name: "query",
			argv: []string{"-fleet-functions", "3000", "-rules", rules,
				"-query", "cost.usd / req.total",
				"-query", `sum(cost.usd{phase="init"}[24h]) / sum(cost.usd[24h])`,
				"-query", `rate(req.total{arm="debloated"}[6h])`,
				"-query", "fleet:cost_usd:sum5m",
				"-query", "max(fleet:req:rate5m[24h])"},
			files:    []string{"openmetrics"},
			contains: map[string][]string{"openmetrics": {`span_id="`}},
		},
		{
			name: "range",
			argv: []string{"-fleet-functions", "3000", "-rules", rules,
				"-query", "fleet:req:rate5m", "-query-step", "4h"},
		},
		{
			name:     "chaos",
			argv:     []string{"-chaos", "default", "-fleet-functions", "3000"},
			files:    []string{"scorecard", "openmetrics"},
			contains: map[string][]string{"stdout": {"FIRING", "resilience scorecard"}},
		},
	} {
		t.Run(sc.name, func(t *testing.T) {
			w1 := runCLI(t, append(sc.argv, "-fleet-workers", "1"), sc.files)
			w4 := runCLI(t, append(sc.argv, "-fleet-workers", "4"), sc.files)
			sameArtifacts(t, sc.name, "-fleet-workers 1", "-fleet-workers 4", w1, w4)
			for artifact, subs := range sc.contains {
				for _, s := range subs {
					if !bytes.Contains(w1[artifact], []byte(s)) {
						t.Errorf("%s: %s does not contain %q", sc.name, artifact, s)
					}
				}
			}
		})
	}
}

// TestRunRejects: a bad invocation exits 2 before any work starts, so
// stdout stays empty, and stderr says what is wrong.
func TestRunRejects(t *testing.T) {
	for _, tc := range []struct{ argv, stderr string }{
		{"nosuchapp", `unknown app "nosuchapp" (lambdatrim -list`},
		{"markdown extra -k 3", `unexpected argument "extra" (usage: lambdatrim <app> [flags])`},
		{"-k 3 markdown", `unexpected argument "markdown"`},
		{"-fleet -scorecard f", "-scorecard needs -chaos"},
		{"-fleet -query x -query-step -5m", "-query-step must be >= 0"},
		{"-fleet -query fleet:req:rate5m -query bad((", `query "bad((": mql: unknown function "bad"`},
		{"lightgbm -monitor -slo bogus", `parsing -slo: monitor: bad SLO "bogus"`},
		{"-workers 0", "-workers must be >= 1 (got 0)"},
		{"-fleet -fleet-functions 0", "-fleet-functions must be >= 1 (got 0)"},
		{"-nosuchflag", "flag provided but not defined: -nosuchflag"},
		// A flag that does nothing in the chosen mode.
		{"markdown -k 3 -scorecard s.txt -chaos-mitigations none", "-chaos-mitigations needs -chaos"},
		{"-fleet -chaos-mitigations all", "-chaos-mitigations needs -chaos"},
		{"markdown -scorecard s.txt", "-scorecard needs -chaos"},
		{"markdown -query-step 4h", "-query-step needs -query"},
		{"-fleet -query-step 4h", "-query-step needs -query"},
		{"-fleet -k 3", "-k does nothing in fleet mode"},
		{"-chaos default -k 20", "-k does nothing in fleet mode"},
		{"-all -k 3", "-k does nothing with -all"},
		{"-all -out trimmed", "-out does nothing with -all"},
		{"-fleet -out trimmed", "-out does nothing in fleet mode"},
		{"markdown -fleet", `the app name "markdown" does nothing in fleet mode`},
		{"markdown -all", `the app name "markdown" does nothing with -all`},
		{"-fleet -fleet-functions 50 -tune -scoring time", "-scoring does nothing in fleet mode"},
		{"-all -workers 2 -granularity stmt -monitor", "-granularity does nothing with -all"},
		{"-fleet -fleet-functions 50 -dir /x", "-dir does nothing in fleet mode"},
		{"-all -faults", "-faults does nothing with -all"},
		{"-fleet -fleet-functions 50 -monitor", "-monitor does nothing in fleet mode"},
		{"-fleet -fleet-functions 50 -all", "-all does nothing in fleet mode"},
		{"markdown -workers 3", "-workers needs -all"},
		{"markdown -fleet-functions 5", "-fleet-functions needs fleet mode"},
		{"-all -fleet-workers 2", "-fleet-workers needs fleet mode"},
		{"-fleet -fleet-functions 50 -serve-frame-delay 2s", "-serve-frame-delay needs -serve"},
		{"markdown -slo p95=1s", "-slo needs -monitor or fleet mode"},
		{"-all -slo p95=1s", "-slo needs -monitor or fleet mode"},
		{"markdown -fault-seed 3", "-fault-seed needs -faults, -monitor, -rollout or fleet mode"},
		{"-all -fault-seed 3", "-fault-seed needs -faults, -monitor, -rollout or fleet mode"},
		{"-all -list", "-list takes no other flag and no app name"},
		{"-list -trace t.json", "-list takes no other flag and no app name"},
		{"markdown -list", "-list takes no other flag and no app name"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(strings.Fields(tc.argv), &stdout, &stderr); code != 2 || stdout.Len() > 0 ||
			!strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("lambdatrim %s: exit %d, %d bytes on stdout, stderr %q; want exit 2, no stdout, stderr containing %q",
				tc.argv, code, stdout.Len(), stderr.String(), tc.stderr)
		}
	}
	// -h is no rejection: the usage goes to stderr and the exit code is 0.
	if code := run([]string{"-h"}, io.Discard, io.Discard); code != 0 {
		t.Errorf("lambdatrim -h: exit %d, want 0", code)
	}
}

// runCLI runs lambdatrim in-process with argv plus, for each name in files,
// the flag -<name> naming a file in a fresh directory. The run must exit 0
// with an empty stderr. It returns stdout and the files' bytes, keyed
// "stdout" and by name.
func runCLI(t *testing.T, argv, files []string) map[string][]byte {
	t.Helper()
	dir := t.TempDir()
	argv = slices.Clone(argv)
	for _, f := range files {
		argv = append(argv, "-"+f, filepath.Join(dir, f))
	}
	var stdout, stderr bytes.Buffer
	if code := run(argv, &stdout, &stderr); code != 0 || stderr.Len() > 0 {
		t.Fatalf("lambdatrim %s: exit %d, stderr:\n%s", strings.Join(argv, " "), code, stderr.Bytes())
	}
	out := map[string][]byte{"stdout": stdout.Bytes()}
	for _, f := range files {
		b, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil {
			t.Fatal(err)
		}
		out[f] = b
	}
	return out
}

// sameArtifacts fails the test for each artifact whose bytes differ between
// runs a and b, naming the scenario, the artifact, the first line that
// differs and both versions of it. An exposition line carries its series
// and a folded-stack line its span path, so the line names what diverged.
func sameArtifacts(t *testing.T, scenario, labelA, labelB string, a, b map[string][]byte) {
	t.Helper()
	names := make([]string, 0, len(a))
	for name := range a {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if bytes.Equal(a[name], b[name]) {
			continue
		}
		la, lb := strings.Split(string(a[name]), "\n"), strings.Split(string(b[name]), "\n")
		i := 0
		for i < len(la) && i < len(lb) && la[i] == lb[i] {
			i++
		}
		line := func(lines []string) string {
			if i < len(lines) {
				return lines[i]
			}
			return "(end of file)"
		}
		t.Errorf("%s: %s differs between %s and %s at line %d:\n  %s: %s\n  %s: %s",
			scenario, name, labelA, labelB, i+1, labelA, line(la), labelB, line(lb))
	}
}
