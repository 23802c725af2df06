package debloat

import (
	"math/rand"
	"sort"

	"repro/internal/appspec"
	"repro/internal/pylang"
	"repro/internal/pyparser"
	"repro/internal/pyruntime"
)

// FuzzReport is the outcome of differential fuzzing between the original
// and the debloated application.
type FuzzReport struct {
	// Trials is the number of mutated inputs executed.
	Trials int
	// Failing lists inputs on which the two applications diverge
	// (different output, result, remote journal, or an error only on the
	// debloated side). Adding these to the oracle set and re-running
	// λ-trim (Rerun) repairs the reduction, per §5.4 of the paper:
	// "running a fuzzer against the optimized program ... if the fuzzer
	// finds a failing input, the user can add the input to the oracle set
	// and rerun".
	Failing []appspec.TestCase
}

// Fuzz mutates the application's oracle events and executes both variants
// on each mutant, reporting divergences. Mutations are seeded and
// deterministic. The mutation dictionary includes every string literal in
// the entry module — the standard trick that lets the fuzzer reach
// string-guarded branches (like a rarely-used "mode": "advanced" path).
func Fuzz(original, optimized *appspec.App, trials int, seed int64) (*FuzzReport, error) {
	rng := rand.New(rand.NewSource(seed))
	dict := sourceStrings(original)
	report := &FuzzReport{}
	// One parse cache serves every trial of both apps: their images do not
	// change during the campaign.
	asts := pyruntime.NewASTCache()

	seen := make(map[string]bool)
	for trial := 0; trial < trials; trial++ {
		seedCase := original.Oracle[rng.Intn(len(original.Oracle))]
		event := mutate(rng, seedCase.Event, dict)
		key := canonical(event)
		if seen[key] {
			continue
		}
		seen[key] = true
		report.Trials++

		origRec := executeForFuzz(original, event, asts)
		optRec := executeForFuzz(optimized, event, asts)
		if origRec != optRec {
			report.Failing = append(report.Failing, appspec.TestCase{
				Name:  "fuzz-" + key,
				Event: event,
			})
		}
	}
	return report, nil
}

// fuzzRecord is the comparable behaviour snapshot for differential runs.
type fuzzRecord struct {
	stdout string
	result string
	errCls string
	remote string
}

// executeForFuzz runs one invocation of app on event in a fresh
// interpreter that parses through asts (nil keeps no parse), and records
// what it observed.
func executeForFuzz(app *appspec.App, event map[string]any, asts *pyruntime.ASTCache) fuzzRecord {
	in := pyruntime.New(app.Image)
	in.SetASTCache(asts)
	result, errCls := invoke(in, app, event, "fuzz")
	rec := fuzzRecord{stdout: in.OutputString(), errCls: errCls}
	if errCls != "" {
		return rec
	}
	rec.result = pyruntime.Repr(result)
	for _, rc := range in.RemoteLog {
		rec.remote += rc.Service + "/" + rc.Op + "/" + rc.Payload + ";"
	}
	return rec
}

// mutate produces a variant of the event: overwrite a key with a
// dictionary string or number, delete a key, or add a dictionary-derived
// key.
func mutate(rng *rand.Rand, event map[string]any, dict []string) map[string]any {
	out := make(map[string]any, len(event)+1)
	for k, v := range event {
		out[k] = v
	}
	keys := sortedKeys(out)
	pick := func() string { return dict[rng.Intn(len(dict))] }
	switch rng.Intn(4) {
	case 0: // overwrite a key with a dictionary string
		if len(keys) > 0 {
			out[keys[rng.Intn(len(keys))]] = pick()
		}
	case 1: // overwrite with a number
		if len(keys) > 0 {
			out[keys[rng.Intn(len(keys))]] = rng.Intn(100)
		}
	case 2: // delete a key
		if len(keys) > 0 {
			delete(out, keys[rng.Intn(len(keys))])
		}
	case 3: // add a dictionary key with a dictionary value
		out[pick()] = pick()
	}
	return out
}

// sourceStrings extracts every string literal from the entry module.
func sourceStrings(app *appspec.App) []string {
	set := map[string]bool{"": true}
	src, err := app.Image.Read(app.Entry + ".py")
	if err == nil {
		if mod, perr := pyparser.Parse(app.Entry, src); perr == nil {
			pylang.Walk(mod, func(n pylang.Node) bool {
				if lit, ok := n.(*pylang.StringLit); ok && len(lit.Value) < 64 {
					set[lit.Value] = true
				}
				return true
			})
		}
	}
	delete(set, "")
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	if len(out) == 0 {
		out = []string{"fuzz"}
	}
	return out
}

func sortedKeys(m map[string]any) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// canonical renders an event deterministically for dedup and naming.
func canonical(event map[string]any) string {
	s := ""
	for _, k := range sortedKeys(event) {
		s += k + "=" + pyruntime.Repr(pyruntime.MustFromGo(event[k])) + ","
	}
	return s
}
