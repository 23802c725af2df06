package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
)

// TestSmoke runs every workload at -short scale, untraced and traced, and
// checks the result line: every metric present with its unit and a finite
// value, and no failed op.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace="+trace, func(t *testing.T) {
				traceOut := filepath.Join(t.TempDir(), "trace.json")
				var stdout, stderr bytes.Buffer
				code := run([]string{"-workload", w.name, "-short", "-trace", trace, "-trace-out", traceOut}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res resultLine
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d: %s", res.Correct, res.Attempted, res.Failed, stderr.String())
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
					chrome, err := os.ReadFile(traceOut)
					if err != nil || !json.Valid(chrome) {
						t.Fatalf("chrome trace missing or not JSON: %v", err)
					}
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("metric %s = %+v (present %v), want unit %s and a finite value", d.name, m, ok, d.unit)
					}
					if !strings.Contains(stdout.String(), d.name) {
						t.Errorf("metric %s is not printed by name", d.name)
					}
				}
			})
		}
	}
}

// TestTamperedDigestFails checks that the correctness gate counts an op
// whose result digest differs from the golden as failed.
func TestTamperedDigestFails(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	tampered := *g
	tampered.Debloat = map[string]string{}
	for k, v := range g.Debloat {
		tampered.Debloat[k] = v
	}
	tampered.Debloat["markdown"] = strings.Repeat("0", 64)
	w, _ := lookupWorkload("debloat-corpus")
	rep, err := w.run(options{seed: 1, short: true}, &tampered, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res := rep.result(); res.Correct || res.Failed != res.Attempted {
		t.Fatalf("tampered golden: correct=%v attempted=%d failed=%d, want every op failed", res.Correct, res.Attempted, res.Failed)
	}
}

// TestWrongQueryBodyFails checks that a served body differing from the
// expected answer counts as a failed op.
func TestWrongQueryBodyFails(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	inst, err := setupQuery(runConfig{seed: 1, short: true, golden: g})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	if err := inst.reference(); err != nil {
		t.Fatal(err)
	}
	_, check, err := inst.op(nil)
	if err != nil || check() != nil {
		t.Fatalf("untampered request: err=%v check=%v", err, check())
	}
	q := inst.(*queryBench)
	for k := range q.want {
		q.want[k] += " "
	}
	_, check, err = inst.op(nil)
	if err != nil {
		t.Fatal(err)
	}
	if check() == nil {
		t.Fatal("a body differing from the expected answer passed the check")
	}
}

// TestPeakRSSReset checks that clearing VmHWM lowers the peak once memory
// is returned, and that without /proc the probe falls back to getrusage.
func TestPeakRSSReset(t *testing.T) {
	p := procRSS()
	if !p.reset() {
		t.Skip("/proc/self/clear_refs is not writable here")
	}
	before, src := p.peakMB()
	if src != "VmHWM" {
		t.Fatalf("source %q, want VmHWM", src)
	}
	buf := make([]byte, 64<<20)
	for i := range buf {
		buf[i] = 1
	}
	high, _ := p.peakMB()
	if high < before+48 {
		t.Fatalf("peak %.1f MB after touching 64 MB, was %.1f MB", high, before)
	}
	runtime.KeepAlive(buf)
	buf = nil
	debug.FreeOSMemory()
	if !p.reset() {
		t.Fatal("second reset failed")
	}
	if low, _ := p.peakMB(); low > high-32 {
		t.Fatalf("peak %.1f MB after reset, %.1f MB before: reset had no effect", low, high)
	}
}

func TestPeakRSSFallback(t *testing.T) {
	p := rssProbe{dir: t.TempDir()}
	if p.reset() {
		t.Fatal("reset succeeded without clear_refs")
	}
	mb, src := p.peakMB()
	if src != "getrusage" || mb <= 0 {
		t.Fatalf("fallback gave %.1f MB from %q, want a positive getrusage value", mb, src)
	}
}

// TestRefusesOversubscription checks that the benchmark will not run with
// more threads than CPUs.
func TestRefusesOversubscription(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU() + 1))
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "fleet-day", "-short"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's workloads and metrics the
// ones the program runs and prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program %q %q", i, spec.Workloads[i], w.name, w.why)
		}
	}
	for _, c := range []struct {
		name string
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", c.name, len(c.json), len(c.defs))
			continue
		}
		for i, d := range c.defs {
			if c.json[i].Name != d.name || c.json[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %s %s", c.name, i, c.json[i], d.name, d.unit)
			}
		}
	}
}
