package pyparser

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/pylang"
)

// The parser's contract with the debloating pipeline: any input — corrupt,
// truncated, or hostile — yields a parse error or an AST, never a panic.

var seedPrograms = []string{
	`
import torch
from torch.nn import Linear, MSELoss

def handler(event, context):
    x = torch.tensor([1.0, 2.0])
    if event.get("mode") == "advanced":
        return getattr(torch, "pad_" + "0000")(x)
    return {"result": x.data}
`,
	`
class Model(Base):
    def __init__(self, n=8):
        self.layers = [Linear(n, 1) for_ = 0]
    def forward(self, t):
        return t
`,
	`
try:
    cfg = load()
except (IOError, ValueError) as e:
    cfg = {"err": str(e), "vals": [1, 2.5, (3,)]}
finally:
    ready = cfg is not None and len(cfg) > 0
`,
	"x = 1\ny = x ** 2 // 3 % 4 - -5\nprint(x < y <= 10)\n",
}

// mutate corrupts src deterministically: byte flips, truncations,
// duplications, token splices.
func mutateSource(rng *rand.Rand, src string) string {
	b := []byte(src)
	switch rng.Intn(5) {
	case 0: // flip a byte
		if len(b) > 0 {
			b[rng.Intn(len(b))] = byte(rng.Intn(128))
		}
	case 1: // truncate
		if len(b) > 1 {
			b = b[:rng.Intn(len(b))]
		}
	case 2: // duplicate a slice
		if len(b) > 2 {
			i, j := rng.Intn(len(b)), rng.Intn(len(b))
			if i > j {
				i, j = j, i
			}
			b = append(b[:j], append([]byte(string(b[i:j])), b[j:]...)...)
		}
	case 3: // splice a random token
		tokens := []string{"def ", "class ", "import ", "lambda", "(", ")", ":",
			"\n    ", "**", "//", "\"", "'", "del ", "from ", "@", "=", "#"}
		tok := tokens[rng.Intn(len(tokens))]
		pos := rng.Intn(len(b) + 1)
		b = append(b[:pos], append([]byte(tok), b[pos:]...)...)
	case 4: // swap two regions
		if len(b) > 4 {
			i := rng.Intn(len(b) - 2)
			j := rng.Intn(len(b) - 2)
			b[i], b[j] = b[j], b[i]
		}
	}
	return string(b)
}

// mutants returns the stacked-mutation inputs of
// TestParserNeverPanicsOnMutants: 3000 seed programs, each corrupted by one
// to four mutations.
func mutants() []string {
	rng := rand.New(rand.NewSource(1234))
	out := make([]string, 3000)
	for trial := range out {
		src := seedPrograms[rng.Intn(len(seedPrograms))]
		// Stack 1-4 mutations.
		for n := rng.Intn(4) + 1; n > 0; n-- {
			src = mutateSource(rng, src)
		}
		out[trial] = src
	}
	return out
}

// randomByteInputs returns the 1500 inputs of
// TestParserNeverPanicsOnRandomBytes, up to 200 arbitrary bytes each.
func randomByteInputs() []string {
	rng := rand.New(rand.NewSource(99))
	out := make([]string, 1500)
	for trial := range out {
		b := make([]byte, rng.Intn(200))
		for i := range b {
			b[i] = byte(rng.Intn(256))
		}
		out[trial] = string(b)
	}
	return out
}

func TestParserNeverPanicsOnMutants(t *testing.T) {
	for trial, src := range mutants() {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("parser panicked on mutant (trial %d): %v\nsource:\n%s", trial, r, src)
				}
			}()
			mod, err := Parse("mutant", src)
			if err == nil && mod == nil {
				t.Fatalf("nil module without error (trial %d)", trial)
			}
		}()
	}
}

func TestParserNeverPanicsOnRandomBytes(t *testing.T) {
	for trial, src := range randomByteInputs() {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("parser panicked on random bytes (trial %d): %v\n%q", trial, r, src)
				}
			}()
			Parse("random", src)
		}()
	}
}

// TestSuccessfulMutantsRoundTrip: whenever a mutant parses, the printed
// form must re-parse — the write-back invariant holds even for weird but
// valid programs.
func TestSuccessfulMutantsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4321))
	parsed := 0
	for trial := 0; trial < 3000 && parsed < 300; trial++ {
		src := seedPrograms[rng.Intn(len(seedPrograms))]
		src = mutateSource(rng, src)
		mod, err := Parse("mutant", src)
		if err != nil {
			continue
		}
		parsed++
		printed := pylang.Print(mod)
		if _, err := Parse("mutant-printed", printed); err != nil {
			t.Fatalf("printed mutant does not re-parse: %v\noriginal:\n%s\nprinted:\n%s",
				err, src, printed)
		}
	}
	if parsed < 50 {
		t.Logf("only %d mutants parsed (expected; mutations are mostly destructive)", parsed)
	}
}

func TestDeeplyNestedInput(t *testing.T) {
	// Deep expression nesting must not blow the stack unreasonably.
	deep := strings.Repeat("(", 2000) + "1" + strings.Repeat(")", 2000)
	func() {
		defer func() { recover() }() // a parse error is fine; a crash is not
		Parse("deep", "x = "+deep+"\n")
	}()

	deepIndent := ""
	for i := 0; i < 500; i++ {
		deepIndent += strings.Repeat("    ", i) + "if x:\n"
	}
	deepIndent += strings.Repeat("    ", 500) + "pass\n"
	if _, err := Parse("indent", deepIndent); err != nil {
		t.Logf("deep indentation rejected cleanly: %v", err)
	}
}
