package pylang

// Node is implemented by every AST node.
type Node interface {
	Position() Pos
}

// Stmt is implemented by statement nodes.
type Stmt interface {
	Node
	stmtNode()
}

// Expr is implemented by expression nodes.
type Expr interface {
	Node
	exprNode()
}

// Module is the root of a parsed file.
type Module struct {
	Name string // dotted module name, informational
	Body []Stmt
}

func (m *Module) Position() Pos {
	if len(m.Body) > 0 {
		return m.Body[0].Position()
	}
	return Pos{1, 1}
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

// Alias is one "name as asname" clause in an import.
type Alias struct {
	Name   string // dotted for plain imports
	AsName string // empty when no alias
}

// Bound returns the name the alias binds in the importing namespace.
func (a Alias) Bound() string {
	if a.AsName != "" {
		return a.AsName
	}
	// "import a.b.c" binds "a".
	for i := 0; i < len(a.Name); i++ {
		if a.Name[i] == '.' {
			return a.Name[:i]
		}
	}
	return a.Name
}

// ImportStmt is "import a.b as c, d".
type ImportStmt struct {
	Pos   Pos
	Names []Alias
}

// FromImportStmt is "from .mod import a as b, c" or "from mod import *".
type FromImportStmt struct {
	Pos    Pos
	Level  int    // number of leading dots (0 = absolute)
	Module string // may be empty for "from . import x"
	Names  []Alias
	Star   bool // "from mod import *"
}

// Param is one formal parameter with an optional default.
type Param struct {
	Name    string
	Default Expr // nil when required
}

// DefStmt is a function definition.
type DefStmt struct {
	Pos        Pos
	Name       string
	Params     []Param
	Body       []Stmt
	Decorators []Expr
}

// ClassStmt is a class definition with at most one base.
type ClassStmt struct {
	Pos        Pos
	Name       string
	Bases      []Expr
	Body       []Stmt
	Decorators []Expr
}

// ReturnStmt is "return [expr]".
type ReturnStmt struct {
	Pos   Pos
	Value Expr // nil for bare return
}

// IfStmt is an if/elif/else chain; Elifs are flattened by the parser into
// nested IfStmts in Else, so this node carries a single condition.
type IfStmt struct {
	Pos  Pos
	Cond Expr
	Body []Stmt
	Else []Stmt // nil when absent
}

// WhileStmt is "while cond:".
type WhileStmt struct {
	Pos  Pos
	Cond Expr
	Body []Stmt
	Else []Stmt
}

// ForStmt is "for target in iter:". Target is a name or tuple of names.
type ForStmt struct {
	Pos    Pos
	Target Expr
	Iter   Expr
	Body   []Stmt
	Else   []Stmt
}

// AssignStmt is "t1 = t2 = value". Targets may be names, attributes,
// subscripts, or tuples thereof.
type AssignStmt struct {
	Pos     Pos
	Targets []Expr
	Value   Expr
}

// AugAssignStmt is "target op= value".
type AugAssignStmt struct {
	Pos    Pos
	Target Expr
	Op     Kind // Plus, Minus, Star, Slash, Percent
	Value  Expr
}

// ExprStmt is an expression evaluated for its side effects.
type ExprStmt struct {
	Pos   Pos
	Value Expr
}

// PassStmt is "pass".
type PassStmt struct{ Pos Pos }

// BreakStmt is "break".
type BreakStmt struct{ Pos Pos }

// ContinueStmt is "continue".
type ContinueStmt struct{ Pos Pos }

// RaiseStmt is "raise [expr]".
type RaiseStmt struct {
	Pos   Pos
	Value Expr // nil re-raises the active exception
}

// ExceptClause is one "except [Type [as name]]:" arm.
type ExceptClause struct {
	Pos  Pos
	Type Expr   // nil catches everything
	Name string // empty when unbound
	Body []Stmt
}

// TryStmt is try/except/else/finally.
type TryStmt struct {
	Pos     Pos
	Body    []Stmt
	Excepts []ExceptClause
	Else    []Stmt
	Finally []Stmt
}

// GlobalStmt is "global a, b".
type GlobalStmt struct {
	Pos   Pos
	Names []string
}

// DelStmt is "del target, ...".
type DelStmt struct {
	Pos     Pos
	Targets []Expr
}

// AssertStmt is "assert cond [, msg]".
type AssertStmt struct {
	Pos  Pos
	Cond Expr
	Msg  Expr // nil when absent
}

func (s *ImportStmt) Position() Pos     { return s.Pos }
func (s *FromImportStmt) Position() Pos { return s.Pos }
func (s *DefStmt) Position() Pos        { return s.Pos }
func (s *ClassStmt) Position() Pos      { return s.Pos }
func (s *ReturnStmt) Position() Pos     { return s.Pos }
func (s *IfStmt) Position() Pos         { return s.Pos }
func (s *WhileStmt) Position() Pos      { return s.Pos }
func (s *ForStmt) Position() Pos        { return s.Pos }
func (s *AssignStmt) Position() Pos     { return s.Pos }
func (s *AugAssignStmt) Position() Pos  { return s.Pos }
func (s *ExprStmt) Position() Pos       { return s.Pos }
func (s *PassStmt) Position() Pos       { return s.Pos }
func (s *BreakStmt) Position() Pos      { return s.Pos }
func (s *ContinueStmt) Position() Pos   { return s.Pos }
func (s *RaiseStmt) Position() Pos      { return s.Pos }
func (s *TryStmt) Position() Pos        { return s.Pos }
func (s *GlobalStmt) Position() Pos     { return s.Pos }
func (s *DelStmt) Position() Pos        { return s.Pos }
func (s *AssertStmt) Position() Pos     { return s.Pos }

func (*ImportStmt) stmtNode()     {}
func (*FromImportStmt) stmtNode() {}
func (*DefStmt) stmtNode()        {}
func (*ClassStmt) stmtNode()      {}
func (*ReturnStmt) stmtNode()     {}
func (*IfStmt) stmtNode()         {}
func (*WhileStmt) stmtNode()      {}
func (*ForStmt) stmtNode()        {}
func (*AssignStmt) stmtNode()     {}
func (*AugAssignStmt) stmtNode()  {}
func (*ExprStmt) stmtNode()       {}
func (*PassStmt) stmtNode()       {}
func (*BreakStmt) stmtNode()      {}
func (*ContinueStmt) stmtNode()   {}
func (*RaiseStmt) stmtNode()      {}
func (*TryStmt) stmtNode()        {}
func (*GlobalStmt) stmtNode()     {}
func (*DelStmt) stmtNode()        {}
func (*AssertStmt) stmtNode()     {}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

// NameExpr is an identifier reference.
type NameExpr struct {
	Pos  Pos
	Name string
}

// IntLit is an integer literal.
type IntLit struct {
	Pos   Pos
	Value int64
}

// FloatLit is a floating-point literal.
type FloatLit struct {
	Pos   Pos
	Value float64
}

// StringLit is a string literal.
type StringLit struct {
	Pos   Pos
	Value string
}

// BoolLit is True or False.
type BoolLit struct {
	Pos   Pos
	Value bool
}

// NoneLit is None.
type NoneLit struct{ Pos Pos }

// AttrExpr is "value.attr".
type AttrExpr struct {
	Pos   Pos
	Value Expr
	Attr  string
}

// IndexExpr is "value[index]" or "value[low:high]" when Slice is set.
type IndexExpr struct {
	Pos   Pos
	Value Expr
	Index Expr // nil iff Slice
	Slice bool
	Low   Expr // may be nil
	High  Expr // may be nil
}

// KeywordArg is a "name=value" call argument.
type KeywordArg struct {
	Name  string
	Value Expr
}

// CallExpr is a function/method/class call.
type CallExpr struct {
	Pos      Pos
	Func     Expr
	Args     []Expr
	Keywords []KeywordArg
}

// BinOp is an arithmetic binary operation.
type BinOp struct {
	Pos   Pos
	Op    Kind // Plus Minus Star Slash DoubleSlash Percent DoubleStar
	Left  Expr
	Right Expr
}

// BoolOp is "and"/"or" over two or more operands, short-circuiting.
type BoolOp struct {
	Pos    Pos
	Op     Kind // KwAnd or KwOr
	Values []Expr
}

// UnaryOp is "-x", "+x" or "not x".
type UnaryOp struct {
	Pos     Pos
	Op      Kind // Minus, Plus, KwNot
	Operand Expr
}

// Compare is a (possibly chained) comparison: Left op0 C0 op1 C1 ...
type Compare struct {
	Pos         Pos
	Left        Expr
	Ops         []Kind // Lt Gt Le Ge Eq Ne KwIn KwNotIn KwIs KwIsNot
	Comparators []Expr
}

// ListExpr is a list display.
type ListExpr struct {
	Pos   Pos
	Elems []Expr
}

// TupleExpr is a tuple display.
type TupleExpr struct {
	Pos   Pos
	Elems []Expr
}

// DictItem is one key:value pair in a dict display.
type DictItem struct {
	Key   Expr
	Value Expr
}

// DictExpr is a dict display.
type DictExpr struct {
	Pos   Pos
	Items []DictItem
}

// CondExpr is "body if cond else orelse".
type CondExpr struct {
	Pos    Pos
	Cond   Expr
	Body   Expr
	OrElse Expr
}

// LambdaExpr is "lambda params: body".
type LambdaExpr struct {
	Pos    Pos
	Params []Param
	Body   Expr
}

func (e *NameExpr) Position() Pos   { return e.Pos }
func (e *IntLit) Position() Pos     { return e.Pos }
func (e *FloatLit) Position() Pos   { return e.Pos }
func (e *StringLit) Position() Pos  { return e.Pos }
func (e *BoolLit) Position() Pos    { return e.Pos }
func (e *NoneLit) Position() Pos    { return e.Pos }
func (e *AttrExpr) Position() Pos   { return e.Pos }
func (e *IndexExpr) Position() Pos  { return e.Pos }
func (e *CallExpr) Position() Pos   { return e.Pos }
func (e *BinOp) Position() Pos      { return e.Pos }
func (e *BoolOp) Position() Pos     { return e.Pos }
func (e *UnaryOp) Position() Pos    { return e.Pos }
func (e *Compare) Position() Pos    { return e.Pos }
func (e *ListExpr) Position() Pos   { return e.Pos }
func (e *TupleExpr) Position() Pos  { return e.Pos }
func (e *DictExpr) Position() Pos   { return e.Pos }
func (e *CondExpr) Position() Pos   { return e.Pos }
func (e *LambdaExpr) Position() Pos { return e.Pos }

func (*NameExpr) exprNode()   {}
func (*IntLit) exprNode()     {}
func (*FloatLit) exprNode()   {}
func (*StringLit) exprNode()  {}
func (*BoolLit) exprNode()    {}
func (*NoneLit) exprNode()    {}
func (*AttrExpr) exprNode()   {}
func (*IndexExpr) exprNode()  {}
func (*CallExpr) exprNode()   {}
func (*BinOp) exprNode()      {}
func (*BoolOp) exprNode()     {}
func (*UnaryOp) exprNode()    {}
func (*Compare) exprNode()    {}
func (*ListExpr) exprNode()   {}
func (*TupleExpr) exprNode()  {}
func (*DictExpr) exprNode()   {}
func (*CondExpr) exprNode()   {}
func (*LambdaExpr) exprNode() {}

// Walk calls fn for every node in the subtree rooted at n, parents before
// children. If fn returns false, the node's children are skipped.
func Walk(n Node, fn func(Node) bool) {
	if n == nil || !fn(n) {
		return
	}
	walkChildren(n, fn)
}

func walkStmts(body []Stmt, fn func(Node) bool) {
	for _, s := range body {
		Walk(s, fn)
	}
}

func walkExprs(exprs []Expr, fn func(Node) bool) {
	for _, e := range exprs {
		Walk(e, fn)
	}
}

func walkChildren(n Node, fn func(Node) bool) {
	switch v := n.(type) {
	case *Module:
		walkStmts(v.Body, fn)
	case *DefStmt:
		walkExprs(v.Decorators, fn)
		for _, p := range v.Params {
			if p.Default != nil {
				Walk(p.Default, fn)
			}
		}
		walkStmts(v.Body, fn)
	case *ClassStmt:
		walkExprs(v.Decorators, fn)
		walkExprs(v.Bases, fn)
		walkStmts(v.Body, fn)
	case *ReturnStmt:
		if v.Value != nil {
			Walk(v.Value, fn)
		}
	case *IfStmt:
		Walk(v.Cond, fn)
		walkStmts(v.Body, fn)
		walkStmts(v.Else, fn)
	case *WhileStmt:
		Walk(v.Cond, fn)
		walkStmts(v.Body, fn)
		walkStmts(v.Else, fn)
	case *ForStmt:
		Walk(v.Target, fn)
		Walk(v.Iter, fn)
		walkStmts(v.Body, fn)
		walkStmts(v.Else, fn)
	case *AssignStmt:
		walkExprs(v.Targets, fn)
		Walk(v.Value, fn)
	case *AugAssignStmt:
		Walk(v.Target, fn)
		Walk(v.Value, fn)
	case *ExprStmt:
		Walk(v.Value, fn)
	case *RaiseStmt:
		if v.Value != nil {
			Walk(v.Value, fn)
		}
	case *TryStmt:
		walkStmts(v.Body, fn)
		for _, ex := range v.Excepts {
			if ex.Type != nil {
				Walk(ex.Type, fn)
			}
			walkStmts(ex.Body, fn)
		}
		walkStmts(v.Else, fn)
		walkStmts(v.Finally, fn)
	case *DelStmt:
		walkExprs(v.Targets, fn)
	case *AssertStmt:
		Walk(v.Cond, fn)
		if v.Msg != nil {
			Walk(v.Msg, fn)
		}
	case *AttrExpr:
		Walk(v.Value, fn)
	case *IndexExpr:
		Walk(v.Value, fn)
		if v.Index != nil {
			Walk(v.Index, fn)
		}
		if v.Low != nil {
			Walk(v.Low, fn)
		}
		if v.High != nil {
			Walk(v.High, fn)
		}
	case *CallExpr:
		Walk(v.Func, fn)
		walkExprs(v.Args, fn)
		for _, kw := range v.Keywords {
			Walk(kw.Value, fn)
		}
	case *BinOp:
		Walk(v.Left, fn)
		Walk(v.Right, fn)
	case *BoolOp:
		walkExprs(v.Values, fn)
	case *UnaryOp:
		Walk(v.Operand, fn)
	case *Compare:
		Walk(v.Left, fn)
		walkExprs(v.Comparators, fn)
	case *ListExpr:
		walkExprs(v.Elems, fn)
	case *TupleExpr:
		walkExprs(v.Elems, fn)
	case *DictExpr:
		for _, it := range v.Items {
			Walk(it.Key, fn)
			Walk(it.Value, fn)
		}
	case *CondExpr:
		Walk(v.Cond, fn)
		Walk(v.Body, fn)
		Walk(v.OrElse, fn)
	case *LambdaExpr:
		for _, p := range v.Params {
			if p.Default != nil {
				Walk(p.Default, fn)
			}
		}
		Walk(v.Body, fn)
	}
}

// BoundNames returns the module attributes a top-level statement binds: a
// def or class name, the name targets of an assignment, and each alias of
// an import or from-import. A star import lists no names.
func BoundNames(s Stmt) []string {
	n := NumBoundNames(s)
	if n == 0 {
		return nil
	}
	names := make([]string, 0, n)
	switch v := s.(type) {
	case *DefStmt:
		names = append(names, v.Name)
	case *ClassStmt:
		names = append(names, v.Name)
	case *AssignStmt:
		for _, t := range v.Targets {
			if n, ok := t.(*NameExpr); ok {
				names = append(names, n.Name)
			}
		}
	case *ImportStmt:
		for _, a := range v.Names {
			names = append(names, a.Bound())
		}
	case *FromImportStmt:
		for _, a := range v.Names {
			if a.AsName != "" {
				names = append(names, a.AsName)
			} else {
				names = append(names, a.Name)
			}
		}
	}
	return names
}

// NumBoundNames returns len(BoundNames(s)) without building the slice.
func NumBoundNames(s Stmt) int {
	switch v := s.(type) {
	case *DefStmt, *ClassStmt:
		return 1
	case *AssignStmt:
		n := 0
		for _, t := range v.Targets {
			if _, ok := t.(*NameExpr); ok {
				n++
			}
		}
		return n
	case *ImportStmt:
		return len(v.Names)
	case *FromImportStmt:
		if v.Star {
			return 0
		}
		return len(v.Names)
	}
	return 0
}
