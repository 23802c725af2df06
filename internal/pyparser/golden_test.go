package pyparser

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/appcorpus"
	"repro/internal/pylang"
)

// parseGolden pins Parse's outcome on every input below, one line each: the
// input's label, then "ok" and a digest of the printed module, or "err" and
// the exact error text. After a deliberate change to the corpus or to an
// error message, rewrite it with parseOutcome of each parseGoldenInputs
// entry, one per line.
const parseGolden = "testdata/parse.golden"

type parseInput struct{ label, name, src string }

// parseGoldenInputs lists every corpus module source, in catalog and image
// order (a library shared by several apps appears once per distinct
// content), then the robustness mutants and random-byte inputs.
func parseGoldenInputs() []parseInput {
	var in []parseInput
	seen := make(map[string]bool)
	for _, d := range appcorpus.Catalog() {
		app := d.Build()
		for _, path := range app.Image.List() {
			if !strings.HasSuffix(path, ".py") {
				continue
			}
			src, err := app.Image.Read(path)
			if err != nil {
				panic(err)
			}
			if key := path + "\x00" + src; !seen[key] {
				seen[key] = true
				in = append(in, parseInput{d.Name + ":" + path, path, src})
			}
		}
	}
	for i, src := range mutants() {
		in = append(in, parseInput{fmt.Sprintf("mutant/%d", i), "mutant", src})
	}
	for i, src := range randomByteInputs() {
		in = append(in, parseInput{fmt.Sprintf("random/%d", i), "random", src})
	}
	return in
}

// parseOutcome renders one golden line.
func parseOutcome(in parseInput) string {
	mod, err := Parse(in.name, in.src)
	if err != nil {
		return in.label + "\terr " + strconv.Quote(err.Error())
	}
	sum := sha256.Sum256([]byte(pylang.Print(mod)))
	return in.label + "\tok " + hex.EncodeToString(sum[:8])
}

// TestParseGolden pins what Parse returns, module or error, on the corpus
// and on the robustness inputs, so a change to the lexer or the parser that
// moves any outcome, an error message or its position included, fails here.
func TestParseGolden(t *testing.T) {
	raw, err := os.ReadFile(filepath.FromSlash(parseGolden))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	inputs := parseGoldenInputs()
	if len(want) != len(inputs) {
		t.Fatalf("%s has %d lines, want one per input (%d)", parseGolden, len(want), len(inputs))
	}
	bad := 0
	for i, in := range inputs {
		if got := parseOutcome(in); got != want[i] {
			if bad++; bad <= 10 {
				t.Errorf("outcome moved:\n got %s\nwant %s\ninput %q", got, want[i], in.src)
			}
		}
	}
	if bad > 10 {
		t.Errorf("... %d outcomes moved in all", bad)
	}
}

// FuzzParse checks Parse on arbitrary input: it never panics, a module it
// returns prints to a source that parses to the same printed form, and
// whenever the lexer rejects the input, Parse reports exactly that lexing
// error, whatever parse error an earlier token would have caused.
func FuzzParse(f *testing.F) {
	for _, src := range seedPrograms {
		f.Add(src)
	}
	for _, src := range []string{
		"x = 1\n", "x = (\n", "x = 1 $\n", "def f(:\n    $\n", "if x:\n  a\n b\n",
		"s = '''open\n", ") = 'unterminated\n", "from . import (a,\n b)\n",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		mod, err := Parse("fuzz", src)
		if _, lexErr := pylang.Tokenize(src); lexErr != nil {
			le := lexErr.(*pylang.LexError)
			want := &ParseError{Module: "fuzz", Pos: le.Pos, Msg: le.Msg}
			if err == nil || err.Error() != want.Error() {
				t.Fatalf("lexer fails with %v, Parse returned %v", want, err)
			}
			return
		}
		if err != nil {
			return
		}
		printed := pylang.Print(mod)
		again, err := Parse("fuzz", printed)
		if err != nil {
			t.Fatalf("printed module does not parse: %v\nprinted:\n%s", err, printed)
		}
		if reprinted := pylang.Print(again); reprinted != printed {
			t.Fatalf("print is not a fixed point:\nfirst:\n%s\nsecond:\n%s", printed, reprinted)
		}
	})
}
