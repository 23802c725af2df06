package pyruntime

// The AST walker in interp.go is the only execution engine. The names below
// select nothing: cmd/bench still spells them when it builds its reference
// configuration, and they go with that program's next change.

// Engine selects nothing; it is kept for cmd/bench.
type Engine int

// EngineWalker names the AST walker. It selects nothing; it is kept for
// cmd/bench.
const EngineWalker Engine = 0

// DefaultEngine always reports EngineWalker. It selects nothing; it is kept
// for cmd/bench.
func DefaultEngine() Engine { return EngineWalker }

// SetDefaultEngine does nothing. It selects nothing; it is kept for
// cmd/bench.
func SetDefaultEngine(Engine) {}
