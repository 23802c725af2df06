package main

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestDeterminism is the drivers' seed contract end to end: each scenario
// runs experiments in-process twice, and stdout and every file it writes
// must be byte-identical between the two runs. One scenario reproduces
// alone: go test -run TestDeterminism/monitor ./cmd/experiments
func TestDeterminism(t *testing.T) {
	for _, sc := range []struct {
		name  string
		argv  []string
		files []string // output flags, each given a file of its own
	}{
		{name: "monitor", argv: []string{"monitor"}, files: []string{"trace", "metrics", "flame", "openmetrics"}},
		{name: "rollout", argv: []string{"rollout"}},
	} {
		t.Run(sc.name, func(t *testing.T) {
			first := runCLI(t, sc.argv, sc.files)
			second := runCLI(t, sc.argv, sc.files)
			sameArtifacts(t, sc.name, "run 1", "run 2", first, second)
		})
	}
}

// TestRunRejects: every target name is resolved before any driver runs, so
// an unknown one (or a flag after a target) exits 2 with nothing rendered.
func TestRunRejects(t *testing.T) {
	for _, tc := range []struct{ argv, stderr string }{
		{"fig1 bogus", `unknown target "bogus"; known: fig1 table1`},
		{"fig1 -workers 0", `unknown target "-workers"`},
		{"fig1 all", `target "all" runs every target, so it must be the only one (got fig1 all)`},
		{"ALL table1", `target "ALL" runs every target`},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(strings.Fields(tc.argv), &stdout, &stderr); code != 2 || stdout.Len() > 0 ||
			!strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("experiments %s: exit %d, %d bytes on stdout, stderr %q; want exit 2, no stdout, stderr containing %q",
				tc.argv, code, stdout.Len(), stderr.String(), tc.stderr)
		}
	}
}

// runCLI runs experiments in-process with the flag -<name> naming a file in
// a fresh directory for each name in files, then argv. The run must exit 0
// with an empty stderr. It returns stdout and the files' bytes, keyed
// "stdout" and by name.
func runCLI(t *testing.T, argv, files []string) map[string][]byte {
	t.Helper()
	dir := t.TempDir()
	var args []string
	for _, f := range files {
		args = append(args, "-"+f, filepath.Join(dir, f))
	}
	args = append(args, argv...)
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 || stderr.Len() > 0 {
		t.Fatalf("experiments %s: exit %d, stderr:\n%s", strings.Join(args, " "), code, stderr.Bytes())
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
