// Package pyparser parses the Python subset defined in internal/pylang into
// an AST. It is a hand-written recursive-descent parser with conventional
// Python operator precedence.
package pyparser

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/pylang"
)

// ParseError reports a syntax error with its source position.
type ParseError struct {
	Module string
	Pos    pylang.Pos
	Msg    string
}

func (e *ParseError) Error() string {
	if e.Module != "" {
		return fmt.Sprintf("%s:%s: %s", e.Module, e.Pos, e.Msg)
	}
	return fmt.Sprintf("%s: %s", e.Pos, e.Msg)
}

// Parse tokenizes and parses src. name is the dotted module name used in
// error messages and stored on the returned module.
func Parse(name, src string) (*pylang.Module, error) {
	p := newParser(name, src)
	mod := &pylang.Module{Name: name}
	var err error
	for err == nil && !p.at(pylang.EOF) {
		var s []pylang.Stmt
		s, err = p.statement()
		mod.Body = append(mod.Body, s...)
	}
	if err = p.lexFirst(err); err != nil {
		if le, ok := err.(*pylang.LexError); ok {
			return nil, &ParseError{Module: name, Pos: le.Pos, Msg: le.Msg}
		}
		return nil, err
	}
	return mod, nil
}

// MustParse parses src and panics on error; for tests and generated code.
func MustParse(name, src string) *pylang.Module {
	m, err := Parse(name, src)
	if err != nil {
		panic(err)
	}
	return m
}

// ParseExpr parses a single expression (used by tests and tools).
func ParseExpr(src string) (pylang.Expr, error) {
	p := newParser("", src)
	e, err := p.exprList()
	if err == nil && !p.at(pylang.NEWLINE) && !p.at(pylang.EOF) {
		err = p.errf("unexpected %s after expression", p.cur())
	}
	if err = p.lexFirst(err); err != nil {
		return nil, err
	}
	return e, nil
}

// parser pulls tokens from the lexer through a two-token window: the
// grammar never backtracks and looks at most one token past the current one.
type parser struct {
	name  string
	lx    *pylang.Lexer
	tok   pylang.Token // current token
	ahead pylang.Token // the token after it
	// lexErr is the lexer's error; once set, the window reads EOF.
	lexErr *pylang.LexError
}

func newParser(name, src string) *parser {
	p := &parser{name: name, lx: pylang.NewLexer(src)}
	p.tok = p.pull()
	p.ahead = p.tok
	if p.tok.Kind != pylang.EOF {
		p.ahead = p.pull()
	}
	return p
}

// pull returns the lexer's next token, or EOF once the lexer has failed.
func (p *parser) pull() pylang.Token {
	if p.lexErr == nil {
		t, err := p.lx.Next()
		if err == nil {
			return t
		}
		p.lexErr = err.(*pylang.LexError)
	}
	return pylang.Token{Kind: pylang.EOF, Pos: p.lexErr.Pos}
}

// lexFirst finishes lexing the input and returns the lexing error if there
// was one, else err: a lexing error anywhere in the input wins over any
// parse error.
func (p *parser) lexFirst(err error) error {
	for p.ahead.Kind != pylang.EOF {
		p.ahead = p.pull()
	}
	if p.lexErr != nil {
		return p.lexErr
	}
	return err
}

func (p *parser) cur() pylang.Token     { return p.tok }
func (p *parser) at(k pylang.Kind) bool { return p.tok.Kind == k }

// peek returns the token after the current one.
func (p *parser) peek() pylang.Token { return p.ahead }

// next consumes the current token and returns it; EOF is never consumed.
func (p *parser) next() pylang.Token {
	t := p.tok
	if t.Kind != pylang.EOF {
		p.tok = p.ahead
		if p.ahead.Kind != pylang.EOF {
			p.ahead = p.pull()
		}
	}
	return t
}

func (p *parser) accept(k pylang.Kind) bool {
	if p.at(k) {
		p.next()
		return true
	}
	return false
}

func (p *parser) expect(k pylang.Kind) (pylang.Token, error) {
	if !p.at(k) {
		return pylang.Token{}, p.errf("expected %s, found %s", k, p.cur())
	}
	return p.next(), nil
}

func (p *parser) errf(format string, args ...any) error {
	return &ParseError{Module: p.name, Pos: p.cur().Pos, Msg: fmt.Sprintf(format, args...)}
}

// statement parses one logical line, which may contain several simple
// statements separated by semicolons, or a single compound statement.
func (p *parser) statement() ([]pylang.Stmt, error) {
	switch p.cur().Kind {
	case pylang.KwIf, pylang.KwWhile, pylang.KwFor, pylang.KwDef,
		pylang.KwClass, pylang.KwTry, pylang.At:
		s, err := p.compoundStmt()
		if err != nil {
			return nil, err
		}
		return []pylang.Stmt{s}, nil
	}
	var out []pylang.Stmt
	for {
		s, err := p.simpleStmt()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
		if !p.accept(pylang.Semicolon) {
			break
		}
		if p.at(pylang.NEWLINE) || p.at(pylang.EOF) {
			break
		}
	}
	if !p.accept(pylang.NEWLINE) && !p.at(pylang.EOF) {
		return nil, p.errf("expected newline, found %s", p.cur())
	}
	return out, nil
}

// block parses ":" NEWLINE INDENT stmt+ DEDENT, or ":" simple-stmt-line.
func (p *parser) block() ([]pylang.Stmt, error) {
	if _, err := p.expect(pylang.Colon); err != nil {
		return nil, err
	}
	if !p.at(pylang.NEWLINE) {
		// Inline suite: "if x: y = 1".
		return p.statement()
	}
	p.next() // NEWLINE
	if _, err := p.expect(pylang.INDENT); err != nil {
		return nil, err
	}
	var body []pylang.Stmt
	for !p.at(pylang.DEDENT) && !p.at(pylang.EOF) {
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		body = append(body, s...)
	}
	p.accept(pylang.DEDENT)
	return body, nil
}

func (p *parser) compoundStmt() (pylang.Stmt, error) {
	switch p.cur().Kind {
	case pylang.KwIf:
		return p.ifStmt(pylang.KwIf)
	case pylang.KwWhile:
		return p.whileStmt()
	case pylang.KwFor:
		return p.forStmt()
	case pylang.KwDef:
		return p.defStmt(nil)
	case pylang.KwClass:
		return p.classStmt(nil)
	case pylang.KwTry:
		return p.tryStmt()
	case pylang.At:
		return p.decorated()
	}
	return nil, p.errf("unexpected %s", p.cur())
}

func (p *parser) decorated() (pylang.Stmt, error) {
	var decorators []pylang.Expr
	for p.at(pylang.At) {
		p.next()
		d, err := p.expr()
		if err != nil {
			return nil, err
		}
		decorators = append(decorators, d)
		if _, err := p.expect(pylang.NEWLINE); err != nil {
			return nil, err
		}
	}
	switch p.cur().Kind {
	case pylang.KwDef:
		return p.defStmt(decorators)
	case pylang.KwClass:
		return p.classStmt(decorators)
	}
	return nil, p.errf("expected def or class after decorator, found %s", p.cur())
}

func (p *parser) ifStmt(lead pylang.Kind) (pylang.Stmt, error) {
	tok, err := p.expect(lead)
	if err != nil {
		return nil, err
	}
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	node := &pylang.IfStmt{Pos: tok.Pos, Cond: cond, Body: body}
	switch p.cur().Kind {
	case pylang.KwElif:
		nested, err := p.ifStmt(pylang.KwElif)
		if err != nil {
			return nil, err
		}
		node.Else = []pylang.Stmt{nested}
	case pylang.KwElse:
		p.next()
		node.Else, err = p.block()
		if err != nil {
			return nil, err
		}
	}
	return node, nil
}

func (p *parser) whileStmt() (pylang.Stmt, error) {
	tok := p.next()
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	node := &pylang.WhileStmt{Pos: tok.Pos, Cond: cond, Body: body}
	if p.accept(pylang.KwElse) {
		node.Else, err = p.block()
		if err != nil {
			return nil, err
		}
	}
	return node, nil
}

func (p *parser) forStmt() (pylang.Stmt, error) {
	tok := p.next()
	target, err := p.targetList()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(pylang.KwIn); err != nil {
		return nil, err
	}
	iter, err := p.exprList()
	if err != nil {
		return nil, err
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	node := &pylang.ForStmt{Pos: tok.Pos, Target: target, Iter: iter, Body: body}
	if p.accept(pylang.KwElse) {
		node.Else, err = p.block()
		if err != nil {
			return nil, err
		}
	}
	return node, nil
}

// targetList parses comma-separated names/attrs/subscripts used as a for
// target, producing a TupleExpr for more than one.
func (p *parser) targetList() (pylang.Expr, error) {
	first, err := p.postfixOnly()
	if err != nil {
		return nil, err
	}
	if !p.at(pylang.Comma) {
		return first, nil
	}
	elems := []pylang.Expr{first}
	for p.accept(pylang.Comma) {
		if p.at(pylang.KwIn) {
			break
		}
		e, err := p.postfixOnly()
		if err != nil {
			return nil, err
		}
		elems = append(elems, e)
	}
	return &pylang.TupleExpr{Pos: first.Position(), Elems: elems}, nil
}

// postfixOnly parses an atom with trailers (no operators), the form valid
// as an assignment target.
func (p *parser) postfixOnly() (pylang.Expr, error) {
	e, err := p.atom()
	if err != nil {
		return nil, err
	}
	return p.trailers(e)
}

func (p *parser) defStmt(decorators []pylang.Expr) (pylang.Stmt, error) {
	tok := p.next()
	nameTok, err := p.expect(pylang.NAME)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(pylang.LParen); err != nil {
		return nil, err
	}
	params, err := p.paramList(pylang.RParen, true)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(pylang.RParen); err != nil {
		return nil, err
	}
	// Optional return annotation, parsed and discarded.
	if p.accept(pylang.Arrow) {
		if _, err := p.expr(); err != nil {
			return nil, err
		}
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	return &pylang.DefStmt{Pos: tok.Pos, Name: nameTok.Text, Params: params,
		Body: body, Decorators: decorators}, nil
}

func (p *parser) paramList(end pylang.Kind, annotations bool) ([]pylang.Param, error) {
	var params []pylang.Param
	for !p.at(end) {
		nameTok, err := p.expect(pylang.NAME)
		if err != nil {
			return nil, err
		}
		param := pylang.Param{Name: nameTok.Text}
		// Optional type annotation, parsed and discarded. Lambdas cannot
		// carry annotations — there the colon terminates the list.
		if annotations && p.accept(pylang.Colon) {
			if _, err := p.exprNoCond(); err != nil {
				return nil, err
			}
		}
		if p.accept(pylang.Assign) {
			param.Default, err = p.expr()
			if err != nil {
				return nil, err
			}
		}
		params = append(params, param)
		if !p.accept(pylang.Comma) {
			break
		}
	}
	return params, nil
}

func (p *parser) classStmt(decorators []pylang.Expr) (pylang.Stmt, error) {
	tok := p.next()
	nameTok, err := p.expect(pylang.NAME)
	if err != nil {
		return nil, err
	}
	var bases []pylang.Expr
	if p.accept(pylang.LParen) {
		for !p.at(pylang.RParen) {
			b, err := p.expr()
			if err != nil {
				return nil, err
			}
			bases = append(bases, b)
			if !p.accept(pylang.Comma) {
				break
			}
		}
		if _, err := p.expect(pylang.RParen); err != nil {
			return nil, err
		}
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	return &pylang.ClassStmt{Pos: tok.Pos, Name: nameTok.Text, Bases: bases,
		Body: body, Decorators: decorators}, nil
}

func (p *parser) tryStmt() (pylang.Stmt, error) {
	tok := p.next()
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	node := &pylang.TryStmt{Pos: tok.Pos, Body: body}
	for p.at(pylang.KwExcept) {
		exTok := p.next()
		clause := pylang.ExceptClause{Pos: exTok.Pos}
		if !p.at(pylang.Colon) {
			clause.Type, err = p.expr()
			if err != nil {
				return nil, err
			}
			if p.accept(pylang.KwAs) {
				nameTok, err := p.expect(pylang.NAME)
				if err != nil {
					return nil, err
				}
				clause.Name = nameTok.Text
			}
		}
		clause.Body, err = p.block()
		if err != nil {
			return nil, err
		}
		node.Excepts = append(node.Excepts, clause)
	}
	if p.accept(pylang.KwElse) {
		node.Else, err = p.block()
		if err != nil {
			return nil, err
		}
	}
	if p.accept(pylang.KwFinally) {
		node.Finally, err = p.block()
		if err != nil {
			return nil, err
		}
	}
	if len(node.Excepts) == 0 && len(node.Finally) == 0 {
		return nil, p.errf("try statement needs except or finally")
	}
	return node, nil
}

func (p *parser) simpleStmt() (pylang.Stmt, error) {
	tok := p.cur()
	switch tok.Kind {
	case pylang.KwImport:
		return p.importStmt()
	case pylang.KwFrom:
		return p.fromImportStmt()
	case pylang.KwReturn:
		p.next()
		node := &pylang.ReturnStmt{Pos: tok.Pos}
		if !p.at(pylang.NEWLINE) && !p.at(pylang.EOF) && !p.at(pylang.Semicolon) {
			v, err := p.exprList()
			if err != nil {
				return nil, err
			}
			node.Value = v
		}
		return node, nil
	case pylang.KwPass:
		p.next()
		return &pylang.PassStmt{Pos: tok.Pos}, nil
	case pylang.KwBreak:
		p.next()
		return &pylang.BreakStmt{Pos: tok.Pos}, nil
	case pylang.KwContinue:
		p.next()
		return &pylang.ContinueStmt{Pos: tok.Pos}, nil
	case pylang.KwRaise:
		p.next()
		node := &pylang.RaiseStmt{Pos: tok.Pos}
		if !p.at(pylang.NEWLINE) && !p.at(pylang.EOF) && !p.at(pylang.Semicolon) {
			v, err := p.expr()
			if err != nil {
				return nil, err
			}
			node.Value = v
			// "raise X from Y" — parse and discard the cause.
			if p.at(pylang.KwFrom) {
				p.next()
				if _, err := p.expr(); err != nil {
					return nil, err
				}
			}
		}
		return node, nil
	case pylang.KwGlobal:
		p.next()
		var names []string
		for {
			nameTok, err := p.expect(pylang.NAME)
			if err != nil {
				return nil, err
			}
			names = append(names, nameTok.Text)
			if !p.accept(pylang.Comma) {
				break
			}
		}
		return &pylang.GlobalStmt{Pos: tok.Pos, Names: names}, nil
	case pylang.KwDel:
		p.next()
		var targets []pylang.Expr
		for {
			t, err := p.postfixOnly()
			if err != nil {
				return nil, err
			}
			targets = append(targets, t)
			if !p.accept(pylang.Comma) {
				break
			}
		}
		return &pylang.DelStmt{Pos: tok.Pos, Targets: targets}, nil
	case pylang.KwAssert:
		p.next()
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		node := &pylang.AssertStmt{Pos: tok.Pos, Cond: cond}
		if p.accept(pylang.Comma) {
			node.Msg, err = p.expr()
			if err != nil {
				return nil, err
			}
		}
		return node, nil
	}
	return p.exprOrAssign()
}

func (p *parser) importStmt() (pylang.Stmt, error) {
	tok := p.next()
	node := &pylang.ImportStmt{Pos: tok.Pos}
	for {
		name, err := p.dottedName()
		if err != nil {
			return nil, err
		}
		alias := pylang.Alias{Name: name}
		if p.accept(pylang.KwAs) {
			asTok, err := p.expect(pylang.NAME)
			if err != nil {
				return nil, err
			}
			alias.AsName = asTok.Text
		}
		node.Names = append(node.Names, alias)
		if !p.accept(pylang.Comma) {
			break
		}
	}
	return node, nil
}

func (p *parser) fromImportStmt() (pylang.Stmt, error) {
	tok := p.next()
	node := &pylang.FromImportStmt{Pos: tok.Pos}
	for p.at(pylang.Dot) {
		p.next()
		node.Level++
	}
	if p.at(pylang.NAME) {
		name, err := p.dottedName()
		if err != nil {
			return nil, err
		}
		node.Module = name
	} else if node.Level == 0 {
		return nil, p.errf("expected module name after from")
	}
	if _, err := p.expect(pylang.KwImport); err != nil {
		return nil, err
	}
	if p.accept(pylang.Star) {
		node.Star = true
		return node, nil
	}
	paren := p.accept(pylang.LParen)
	for {
		nameTok, err := p.expect(pylang.NAME)
		if err != nil {
			return nil, err
		}
		alias := pylang.Alias{Name: nameTok.Text}
		if p.accept(pylang.KwAs) {
			asTok, err := p.expect(pylang.NAME)
			if err != nil {
				return nil, err
			}
			alias.AsName = asTok.Text
		}
		node.Names = append(node.Names, alias)
		if !p.accept(pylang.Comma) {
			break
		}
		if paren && p.at(pylang.RParen) {
			break
		}
	}
	if paren {
		if _, err := p.expect(pylang.RParen); err != nil {
			return nil, err
		}
	}
	return node, nil
}

func (p *parser) dottedName() (string, error) {
	nameTok, err := p.expect(pylang.NAME)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.WriteString(nameTok.Text)
	for p.at(pylang.Dot) && p.peek().Kind == pylang.NAME {
		p.next()
		part := p.next()
		sb.WriteByte('.')
		sb.WriteString(part.Text)
	}
	return sb.String(), nil
}

var augOps = map[pylang.Kind]pylang.Kind{
	pylang.PlusEq:        pylang.Plus,
	pylang.MinusEq:       pylang.Minus,
	pylang.StarEq:        pylang.Star,
	pylang.SlashEq:       pylang.Slash,
	pylang.PercentEq:     pylang.Percent,
	pylang.DoubleSlashEq: pylang.DoubleSlash,
	pylang.DoubleStarEq:  pylang.DoubleStar,
}

func (p *parser) exprOrAssign() (pylang.Stmt, error) {
	pos := p.cur().Pos
	first, err := p.exprList()
	if err != nil {
		return nil, err
	}
	if op, ok := augOps[p.cur().Kind]; ok {
		p.next()
		value, err := p.exprList()
		if err != nil {
			return nil, err
		}
		return &pylang.AugAssignStmt{Pos: pos, Target: first, Op: op, Value: value}, nil
	}
	if !p.at(pylang.Assign) {
		return &pylang.ExprStmt{Pos: pos, Value: first}, nil
	}
	targets := []pylang.Expr{first}
	var value pylang.Expr
	for p.accept(pylang.Assign) {
		e, err := p.exprList()
		if err != nil {
			return nil, err
		}
		if p.at(pylang.Assign) {
			targets = append(targets, e)
		} else {
			value = e
		}
	}
	return &pylang.AssignStmt{Pos: pos, Targets: targets, Value: value}, nil
}

// exprList parses "expr (, expr)*", yielding a TupleExpr when more than one.
func (p *parser) exprList() (pylang.Expr, error) {
	first, err := p.expr()
	if err != nil {
		return nil, err
	}
	if !p.at(pylang.Comma) {
		return first, nil
	}
	elems := []pylang.Expr{first}
	for p.accept(pylang.Comma) {
		if p.exprListEnds() {
			break
		}
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		elems = append(elems, e)
	}
	return &pylang.TupleExpr{Pos: first.Position(), Elems: elems}, nil
}

func (p *parser) exprListEnds() bool {
	switch p.cur().Kind {
	case pylang.NEWLINE, pylang.EOF, pylang.Assign, pylang.Semicolon,
		pylang.RParen, pylang.RBracket, pylang.RBrace, pylang.Colon:
		return true
	}
	return false
}

// expr parses a full expression including conditionals and lambda.
func (p *parser) expr() (pylang.Expr, error) {
	if p.at(pylang.KwLambda) {
		return p.lambda()
	}
	body, err := p.orExpr()
	if err != nil {
		return nil, err
	}
	if !p.at(pylang.KwIf) {
		return body, nil
	}
	p.next()
	cond, err := p.orExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(pylang.KwElse); err != nil {
		return nil, err
	}
	orelse, err := p.expr()
	if err != nil {
		return nil, err
	}
	return &pylang.CondExpr{Pos: body.Position(), Cond: cond, Body: body, OrElse: orelse}, nil
}

// exprNoCond parses an expression that stops before a trailing "if"
// (used for annotations where a conditional would be ambiguous).
func (p *parser) exprNoCond() (pylang.Expr, error) { return p.orExpr() }

func (p *parser) lambda() (pylang.Expr, error) {
	tok := p.next()
	params, err := p.paramList(pylang.Colon, false)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(pylang.Colon); err != nil {
		return nil, err
	}
	body, err := p.expr()
	if err != nil {
		return nil, err
	}
	return &pylang.LambdaExpr{Pos: tok.Pos, Params: params, Body: body}, nil
}

func (p *parser) orExpr() (pylang.Expr, error) {
	left, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	if !p.at(pylang.KwOr) {
		return left, nil
	}
	values := []pylang.Expr{left}
	for p.accept(pylang.KwOr) {
		right, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		values = append(values, right)
	}
	return &pylang.BoolOp{Pos: left.Position(), Op: pylang.KwOr, Values: values}, nil
}

func (p *parser) andExpr() (pylang.Expr, error) {
	left, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	if !p.at(pylang.KwAnd) {
		return left, nil
	}
	values := []pylang.Expr{left}
	for p.accept(pylang.KwAnd) {
		right, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		values = append(values, right)
	}
	return &pylang.BoolOp{Pos: left.Position(), Op: pylang.KwAnd, Values: values}, nil
}

func (p *parser) notExpr() (pylang.Expr, error) {
	if p.at(pylang.KwNot) {
		tok := p.next()
		operand, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return &pylang.UnaryOp{Pos: tok.Pos, Op: pylang.KwNot, Operand: operand}, nil
	}
	return p.comparison()
}

func isCompareOp(k pylang.Kind) bool {
	switch k {
	case pylang.Lt, pylang.Gt, pylang.Le, pylang.Ge, pylang.Eq, pylang.Ne,
		pylang.KwIn, pylang.KwNotIn, pylang.KwIs, pylang.KwIsNot:
		return true
	}
	return false
}

func (p *parser) comparison() (pylang.Expr, error) {
	left, err := p.arith()
	if err != nil {
		return nil, err
	}
	if !isCompareOp(p.cur().Kind) {
		return left, nil
	}
	node := &pylang.Compare{Pos: left.Position(), Left: left}
	for isCompareOp(p.cur().Kind) {
		op := p.next().Kind
		right, err := p.arith()
		if err != nil {
			return nil, err
		}
		node.Ops = append(node.Ops, op)
		node.Comparators = append(node.Comparators, right)
	}
	return node, nil
}

func (p *parser) arith() (pylang.Expr, error) {
	left, err := p.term()
	if err != nil {
		return nil, err
	}
	for p.at(pylang.Plus) || p.at(pylang.Minus) {
		op := p.next().Kind
		right, err := p.term()
		if err != nil {
			return nil, err
		}
		left = &pylang.BinOp{Pos: left.Position(), Op: op, Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) term() (pylang.Expr, error) {
	left, err := p.factor()
	if err != nil {
		return nil, err
	}
	for p.at(pylang.Star) || p.at(pylang.Slash) || p.at(pylang.DoubleSlash) || p.at(pylang.Percent) {
		op := p.next().Kind
		right, err := p.factor()
		if err != nil {
			return nil, err
		}
		left = &pylang.BinOp{Pos: left.Position(), Op: op, Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) factor() (pylang.Expr, error) {
	if p.at(pylang.Minus) || p.at(pylang.Plus) {
		tok := p.next()
		operand, err := p.factor()
		if err != nil {
			return nil, err
		}
		return &pylang.UnaryOp{Pos: tok.Pos, Op: tok.Kind, Operand: operand}, nil
	}
	return p.power()
}

func (p *parser) power() (pylang.Expr, error) {
	base, err := p.postfix()
	if err != nil {
		return nil, err
	}
	if p.accept(pylang.DoubleStar) {
		exp, err := p.factor() // right-associative
		if err != nil {
			return nil, err
		}
		return &pylang.BinOp{Pos: base.Position(), Op: pylang.DoubleStar, Left: base, Right: exp}, nil
	}
	return base, nil
}

func (p *parser) postfix() (pylang.Expr, error) {
	e, err := p.atom()
	if err != nil {
		return nil, err
	}
	return p.trailers(e)
}

func (p *parser) trailers(e pylang.Expr) (pylang.Expr, error) {
	for {
		switch p.cur().Kind {
		case pylang.Dot:
			p.next()
			nameTok, err := p.expect(pylang.NAME)
			if err != nil {
				return nil, err
			}
			e = &pylang.AttrExpr{Pos: e.Position(), Value: e, Attr: nameTok.Text}
		case pylang.LParen:
			p.next()
			call := &pylang.CallExpr{Pos: e.Position(), Func: e}
			for !p.at(pylang.RParen) {
				if p.at(pylang.NAME) && p.peek().Kind == pylang.Assign {
					nameTok := p.next()
					p.next() // =
					v, err := p.expr()
					if err != nil {
						return nil, err
					}
					call.Keywords = append(call.Keywords, pylang.KeywordArg{Name: nameTok.Text, Value: v})
				} else {
					a, err := p.expr()
					if err != nil {
						return nil, err
					}
					if len(call.Keywords) > 0 {
						return nil, p.errf("positional argument after keyword argument")
					}
					call.Args = append(call.Args, a)
				}
				if !p.accept(pylang.Comma) {
					break
				}
			}
			if _, err := p.expect(pylang.RParen); err != nil {
				return nil, err
			}
			e = call
		case pylang.LBracket:
			p.next()
			idx := &pylang.IndexExpr{Pos: e.Position(), Value: e}
			if p.at(pylang.Colon) {
				idx.Slice = true
			} else {
				first, err := p.expr()
				if err != nil {
					return nil, err
				}
				if p.at(pylang.Colon) {
					idx.Slice = true
					idx.Low = first
				} else {
					idx.Index = first
				}
			}
			if idx.Slice {
				if _, err := p.expect(pylang.Colon); err != nil {
					return nil, err
				}
				if !p.at(pylang.RBracket) {
					high, err := p.expr()
					if err != nil {
						return nil, err
					}
					idx.High = high
				}
			}
			if _, err := p.expect(pylang.RBracket); err != nil {
				return nil, err
			}
			e = idx
		default:
			return e, nil
		}
	}
}

func (p *parser) atom() (pylang.Expr, error) {
	tok := p.cur()
	switch tok.Kind {
	case pylang.NAME:
		p.next()
		return &pylang.NameExpr{Pos: tok.Pos, Name: tok.Text}, nil
	case pylang.NUMBER:
		p.next()
		text := strings.ReplaceAll(tok.Text, "_", "")
		if strings.ContainsAny(text, ".eE") {
			f, err := strconv.ParseFloat(text, 64)
			if err != nil {
				return nil, p.errf("bad float literal %q", tok.Text)
			}
			return &pylang.FloatLit{Pos: tok.Pos, Value: f}, nil
		}
		i, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return nil, p.errf("bad int literal %q", tok.Text)
		}
		return &pylang.IntLit{Pos: tok.Pos, Value: i}, nil
	case pylang.STRING:
		p.next()
		value := tok.Text
		// Adjacent string literal concatenation.
		for p.at(pylang.STRING) {
			value += p.next().Text
		}
		return &pylang.StringLit{Pos: tok.Pos, Value: value}, nil
	case pylang.KwTrue:
		p.next()
		return &pylang.BoolLit{Pos: tok.Pos, Value: true}, nil
	case pylang.KwFalse:
		p.next()
		return &pylang.BoolLit{Pos: tok.Pos, Value: false}, nil
	case pylang.KwNone:
		p.next()
		return &pylang.NoneLit{Pos: tok.Pos}, nil
	case pylang.LParen:
		p.next()
		if p.accept(pylang.RParen) {
			return &pylang.TupleExpr{Pos: tok.Pos}, nil
		}
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if p.at(pylang.Comma) {
			elems := []pylang.Expr{e}
			for p.accept(pylang.Comma) {
				if p.at(pylang.RParen) {
					break
				}
				el, err := p.expr()
				if err != nil {
					return nil, err
				}
				elems = append(elems, el)
			}
			e = &pylang.TupleExpr{Pos: tok.Pos, Elems: elems}
		}
		if _, err := p.expect(pylang.RParen); err != nil {
			return nil, err
		}
		return e, nil
	case pylang.LBracket:
		p.next()
		node := &pylang.ListExpr{Pos: tok.Pos}
		for !p.at(pylang.RBracket) {
			el, err := p.expr()
			if err != nil {
				return nil, err
			}
			node.Elems = append(node.Elems, el)
			if !p.accept(pylang.Comma) {
				break
			}
		}
		if _, err := p.expect(pylang.RBracket); err != nil {
			return nil, err
		}
		return node, nil
	case pylang.LBrace:
		p.next()
		node := &pylang.DictExpr{Pos: tok.Pos}
		for !p.at(pylang.RBrace) {
			key, err := p.expr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(pylang.Colon); err != nil {
				return nil, err
			}
			value, err := p.expr()
			if err != nil {
				return nil, err
			}
			node.Items = append(node.Items, pylang.DictItem{Key: key, Value: value})
			if !p.accept(pylang.Comma) {
				break
			}
		}
		if _, err := p.expect(pylang.RBrace); err != nil {
			return nil, err
		}
		return node, nil
	}
	return nil, p.errf("unexpected %s", tok)
}
