package pyruntime

import (
	"testing"

	"repro/internal/pyparser"
	"repro/internal/vfs"
)

// Substrate micro-benchmarks: the interpreter's statement throughput bounds
// how fast Delta Debugging's oracle runs execute.

func BenchmarkStatementThroughput(b *testing.B) {
	parsed := pyparser.MustParse("bench", `
total = 0
for i in range(200):
    if i % 2 == 0:
        total += i
    else:
        total -= 1
`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := New(vfs.New())
		mod := &ModuleV{Name: "__main__", Dict: NewNamespace()}
		if perr := in.RunModule(mod, parsed.Body); perr != nil {
			b.Fatal(perr)
		}
	}
}

func BenchmarkFunctionCalls(b *testing.B) {
	parsed := pyparser.MustParse("bench", `
def add(a, c=1):
    return a + c

total = 0
for i in range(100):
    total = add(total, c=2)
`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := New(vfs.New())
		mod := &ModuleV{Name: "__main__", Dict: NewNamespace()}
		if perr := in.RunModule(mod, parsed.Body); perr != nil {
			b.Fatal(perr)
		}
	}
}

func BenchmarkImportLargeModule(b *testing.B) {
	// A module with 500 attribute definitions, the shape DD re-imports on
	// every oracle run.
	src := ""
	for i := 0; i < 500; i++ {
		src += "def f" + itobench(i) + "(x):\n    return x\n"
	}
	fs := vfs.New()
	fs.Write("site-packages/big.py", src)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := New(fs)
		if _, perr := in.Import("big"); perr != nil {
			b.Fatal(perr)
		}
	}
}

func BenchmarkImportWithSharedASTCache(b *testing.B) {
	src := ""
	for i := 0; i < 500; i++ {
		src += "def f" + itobench(i) + "(x):\n    return x\n"
	}
	fs := vfs.New()
	fs.Write("site-packages/big.py", src)
	cache := NewASTCache()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := New(fs)
		in.SetASTCache(cache)
		if _, perr := in.Import("big"); perr != nil {
			b.Fatal(perr)
		}
	}
}

func itobench(n int) string {
	if n == 0 {
		return "0"
	}
	var digits []byte
	for n > 0 {
		digits = append([]byte{byte('0' + n%10)}, digits...)
		n /= 10
	}
	return string(digits)
}
