package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"

	"repro/internal/debloat"
	"repro/internal/experiments"
	"repro/internal/pyruntime"
)

//go:embed testdata/golden.json
var goldenJSON []byte

// golden holds the committed reference digests.
type golden struct {
	// Debloat and Rerun map each app to the digest of its default-config
	// debloat.Result and of its heal Rerun. The seed only permutes app
	// order, so they hold at every seed and also check that results do not
	// depend on the order apps are debloated in.
	Debloat map[string]string `json:"debloat"`
	Rerun   map[string]string `json:"rerun"`
	// Fleet maps a fleet workload to its artifact digests at seed 1 and
	// full scale.
	Fleet map[string]artifacts `json:"fleet_seed1"`
}

// artifacts are the SHA-256 digests of one replay's outputs.
type artifacts struct {
	Report      string `json:"report"`
	OpenMetrics string `json:"openmetrics"`
	Scorecard   string `json:"scorecard"`
}

func loadGolden() (*golden, error) {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("testdata/golden.json: %w", err)
	}
	return &g, nil
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// resultDigest is a debloat.Result's identity: each module's sorted removed
// attributes, the oracle run count, the simulated debloat time, and the
// SHA-256 of every file the optimized image rewrote.
func resultDigest(r *debloat.Result) string {
	var b bytes.Buffer
	for _, m := range r.Modules {
		removed := append([]string(nil), m.Removed...)
		sort.Strings(removed)
		fmt.Fprintf(&b, "module %s skipped=%q removed=%s\n", m.Module, m.Skipped, strings.Join(removed, ","))
	}
	fmt.Fprintf(&b, "oracle_runs %d\ndebloat_time %d\n", r.OracleRuns, r.DebloatTime)
	for _, path := range r.App.Image.List() {
		src, _ := r.App.Image.Read(path)
		if orig, err := r.Original.Image.Read(path); err == nil && orig == src {
			continue
		}
		fmt.Fprintf(&b, "file %s %s\n", path, sha([]byte(src)))
	}
	return sha(b.Bytes())
}

// updateGolden recomputes the goldens and writes them to path. It refuses
// when the reference configuration — no snapshot memo, AST-walker engine —
// disagrees with the default on any pipeline digest.
func updateGolden(path string, log io.Writer) error {
	g := golden{Debloat: map[string]string{}, Rerun: map[string]string{}, Fleet: map[string]artifacts{}}
	fast, slow := experiments.NewSuite(), experiments.NewSuite()
	slow.DisableMemo = true
	walker := debloat.DefaultConfig()
	walker.Engine = pyruntime.EngineWalker
	for _, name := range experiments.AllNames() {
		a, err := fast.Debloat(name)
		if err != nil {
			return err
		}
		b, err := slow.DebloatWith(name, walker)
		if err != nil {
			return err
		}
		if da, db := resultDigest(a), resultDigest(b); da != db {
			return fmt.Errorf("%s: Debloat digest %.16s differs from the no-memo walker's %.16s", name, da, db)
		}
		ha, err := debloat.Rerun(a, healCases, debloat.DefaultConfig())
		if err != nil {
			return err
		}
		// Rerun builds its own interpreters, so the walker is selected
		// process-wide for the reference arm.
		engine := pyruntime.DefaultEngine()
		pyruntime.SetDefaultEngine(pyruntime.EngineWalker)
		hb, err := debloat.Rerun(b, healCases, walker)
		pyruntime.SetDefaultEngine(engine)
		if err != nil {
			return err
		}
		if da, db := resultDigest(ha), resultDigest(hb); da != db {
			return fmt.Errorf("%s: Rerun digest %.16s differs from the walker's %.16s", name, da, db)
		}
		g.Debloat[name], g.Rerun[name] = resultDigest(a), resultDigest(ha)
		fmt.Fprintf(log, "%-18s debloat %.16s rerun %.16s\n", name, g.Debloat[name], g.Rerun[name])
	}
	for _, chaos := range []bool{false, true} {
		f := newFleetBench(chaos, runConfig{seed: 1})
		_, ref, err := f.replay(1)
		if err != nil {
			return err
		}
		_, par, err := f.replay(runtime.GOMAXPROCS(0))
		if err != nil {
			return err
		}
		if par != ref {
			return fmt.Errorf("%s: artifacts differ between 1 and %d workers", f.name, runtime.GOMAXPROCS(0))
		}
		g.Fleet[f.name] = ref
		fmt.Fprintf(log, "%-18s report %.16s openmetrics %.16s scorecard %.16s\n", f.name, ref.Report, ref.OpenMetrics, ref.Scorecard)
	}
	out, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
