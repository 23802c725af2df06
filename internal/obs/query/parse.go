package query

import (
	"fmt"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"

	"repro/internal/obs/monitor"
)

// Parse parses one mql expression. The whole input must be consumed; a
// trailing range selector outside an aggregation call (`x[5m]` bare) is
// therefore rejected, matching the language rule that window reads always
// go through an aggregation function.
//
// An expression whose tree nests deeper than maxDepth is rejected, as is
// one that opens more than maxParens parentheses at once.
func Parse(q string) (Expr, error) {
	p := &parser{s: q}
	x, err := p.expr()
	if err != nil {
		return nil, err
	}
	p.ws()
	if p.i < len(p.s) {
		return nil, p.errf("unexpected %s", Excerpt(p.s[p.i:]))
	}
	return x.x, nil
}

// maxDepth bounds how deeply a parsed tree nests: a number, selector or
// call is 1 deep, a negation one more than its operand, and a binary
// operation one more than its deeper operand. String, eval and the read
// bound all recurse over the tree, so without a bound a query of a few
// hundred kilobytes grew a goroutine's stack by hundreds of megabytes. A
// chain `a + b + …` nests one level per operator, so the bound also caps
// a chain at maxDepth terms.
const maxDepth = 1 << 14

// maxParens bounds the parentheses open at once while parsing. Each costs
// four frames of the parser's own recursion (primary → expr → term →
// unary) and adds no depth to the tree. The canonical form of a tree of
// depth d opens at most d−1, one per operation, so the String of every
// tree Parse accepts parses again.
const maxParens = maxDepth - 1

// node is a parsed subtree and its depth.
type node struct {
	x     Expr
	depth int
}

// nest builds a negation or binary operation over subtrees of the given
// depth, rejecting a tree deeper than maxDepth.
func (p *parser) nest(x Expr, sub int) (node, error) {
	if sub >= maxDepth {
		return node{}, p.errf("expression nests deeper than %d levels", maxDepth)
	}
	return node{x, sub + 1}, nil
}

// functions are the range aggregations; an identifier followed by '(' must
// be one of these.
var functions = map[string]bool{
	"sum": true, "count": true, "max": true, "mean": true, "rate": true,
	"p50": true, "p90": true, "p95": true, "p99": true,
}

type parser struct {
	s      string
	i      int
	parens int // parentheses entered and not yet left
	negs   int // negations entered and not yet left
}

// errf reports a parse error at the current offset. An error names the
// offset and the query's length and quotes user text only through
// Excerpt, so its size is bounded whatever the query's.
func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("mql: %s (at offset %d of a %d-byte query)", fmt.Sprintf(format, args...), p.i, len(p.s))
}

// excerptLen bounds the bytes of user text one error quotes.
const excerptLen = 32

// Excerpt quotes s, cut to at most excerptLen bytes at a rune boundary
// with "..." marking the cut: how an error quotes user text.
func Excerpt(s string) string {
	if len(s) <= excerptLen {
		return strconv.Quote(s)
	}
	n := excerptLen
	for n > 0 && !utf8.RuneStart(s[n]) {
		n--
	}
	return strconv.Quote(s[:n]) + "..."
}

func (p *parser) ws() {
	for p.i < len(p.s) {
		switch p.s[p.i] {
		case ' ', '\t', '\r', '\n':
			p.i++
		default:
			return
		}
	}
}

func (p *parser) peek() byte {
	if p.i >= len(p.s) {
		return 0
	}
	return p.s[p.i]
}

func (p *parser) expect(c byte) error {
	p.ws()
	if p.peek() != c {
		return p.errf("expected %q", string(c))
	}
	p.i++
	return nil
}

func isIdentStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}

func isIdentByte(c byte) bool {
	return isIdentStart(c) || c >= '0' && c <= '9' || c == '.' || c == ':'
}

func (p *parser) ident() string {
	start := p.i
	for p.i < len(p.s) && isIdentByte(p.s[p.i]) {
		p.i++
	}
	return p.s[start:p.i]
}

// stringLit scans a double-quoted literal. No escape sequences: the
// canonical renderer never needs them ('"', '{', and '}' are rejected
// where they would be ambiguous), which keeps parse→String→parse exact.
func (p *parser) stringLit() (string, error) {
	p.i++ // opening quote, already peeked
	start := p.i
	for p.i < len(p.s) {
		if p.s[p.i] == '"' {
			v := p.s[start:p.i]
			p.i++
			return v, nil
		}
		if p.s[p.i] == '\n' {
			break
		}
		p.i++
	}
	return "", p.errf("unterminated string")
}

func (p *parser) expr() (node, error) {
	l, err := p.term()
	if err != nil {
		return node{}, err
	}
	for {
		p.ws()
		op := p.peek()
		if op != '+' && op != '-' {
			return l, nil
		}
		p.i++
		r, err := p.term()
		if err != nil {
			return node{}, err
		}
		if l, err = p.nest(Binary{Op: op, L: l.x, R: r.x}, max(l.depth, r.depth)); err != nil {
			return node{}, err
		}
	}
}

func (p *parser) term() (node, error) {
	l, err := p.unary()
	if err != nil {
		return node{}, err
	}
	for {
		p.ws()
		op := p.peek()
		if op != '*' && op != '/' {
			return l, nil
		}
		p.i++
		r, err := p.unary()
		if err != nil {
			return node{}, err
		}
		if l, err = p.nest(Binary{Op: op, L: l.x, R: r.x}, max(l.depth, r.depth)); err != nil {
			return node{}, err
		}
	}
}

func (p *parser) unary() (node, error) {
	p.ws()
	if p.peek() == '-' {
		p.i++
		// k negations open at once make a tree at least k+1 deep, so the
		// maxDepth-th is rejected here, before the recursion grows.
		if p.negs++; p.negs >= maxDepth {
			return node{}, p.errf("expression nests deeper than %d levels", maxDepth)
		}
		x, err := p.unary()
		if err != nil {
			return node{}, err
		}
		p.negs--
		return p.nest(Unary{X: x.x}, x.depth)
	}
	return p.primary()
}

func (p *parser) primary() (node, error) {
	p.ws()
	if p.peek() != '(' {
		x, err := p.leaf()
		return node{x, 1}, err
	}
	p.i++
	if p.parens++; p.parens > maxParens {
		return node{}, p.errf("parentheses nest deeper than %d levels", maxParens)
	}
	x, err := p.expr()
	if err != nil {
		return node{}, err
	}
	if err := p.expect(')'); err != nil {
		return node{}, err
	}
	p.parens--
	return x, nil
}

// leaf parses a number, a call or a selector.
func (p *parser) leaf() (Expr, error) {
	switch c := p.peek(); {
	case c >= '0' && c <= '9' || c == '.':
		return p.number()
	case c == '"':
		return p.selector()
	case isIdentStart(c):
		save := p.i
		name := p.ident()
		p.ws()
		if p.peek() == '(' {
			if !functions[name] {
				return nil, p.errf("unknown function %s", Excerpt(name))
			}
			return p.call(name)
		}
		p.i = save
		return p.selector()
	case c == 0:
		return nil, p.errf("unexpected end of query")
	default:
		return nil, p.errf("unexpected %q", string(c))
	}
}

func (p *parser) number() (Expr, error) {
	start := p.i
	for p.i < len(p.s) && (p.s[p.i] >= '0' && p.s[p.i] <= '9' || p.s[p.i] == '.') {
		p.i++
	}
	if p.i < len(p.s) && (p.s[p.i] == 'e' || p.s[p.i] == 'E') {
		p.i++
		if p.i < len(p.s) && (p.s[p.i] == '+' || p.s[p.i] == '-') {
			p.i++
		}
		for p.i < len(p.s) && p.s[p.i] >= '0' && p.s[p.i] <= '9' {
			p.i++
		}
	}
	v, err := strconv.ParseFloat(p.s[start:p.i], 64)
	if err != nil {
		return nil, p.errf("bad number %s", Excerpt(p.s[start:p.i]))
	}
	return Number(v), nil
}

// call parses the argument list of a range aggregation:
// "(" selector "[" duration "]" ")".
func (p *parser) call(fn string) (Expr, error) {
	p.i++ // '(' already peeked
	sel, err := p.selector()
	if err != nil {
		return nil, err
	}
	if err := p.expect('['); err != nil {
		return nil, err
	}
	end := strings.IndexByte(p.s[p.i:], ']')
	if end < 0 {
		return nil, p.errf("unterminated range selector")
	}
	raw := strings.TrimSpace(p.s[p.i : p.i+end])
	d, derr := time.ParseDuration(raw)
	if derr != nil || d <= 0 {
		return nil, p.errf("bad window %s (want a positive Go duration)", Excerpt(raw))
	}
	p.i += end + 1
	if err := p.expect(')'); err != nil {
		return nil, err
	}
	return Call{Fn: fn, Sel: sel, Window: d}, nil
}

func (p *parser) selector() (Selector, error) {
	p.ws()
	var fam string
	switch c := p.peek(); {
	case c == '"':
		v, err := p.stringLit()
		if err != nil {
			return Selector{}, err
		}
		// A brace in a quoted family would collide with the canonical
		// label encoding and with label blocks; reject rather than
		// produce a selector that cannot round-trip.
		if strings.ContainsAny(v, "{}") {
			return Selector{}, p.errf("series name %s must not contain braces", Excerpt(v))
		}
		fam = v
	case isIdentStart(c):
		fam = p.ident()
	default:
		return Selector{}, p.errf("expected a series name")
	}
	var labels []monitor.Label
	p.ws()
	if p.peek() == '{' {
		p.i++
		for {
			p.ws()
			if p.peek() == '}' {
				p.i++
				break
			}
			if len(labels) > 0 {
				if err := p.expect(','); err != nil {
					return Selector{}, err
				}
				p.ws()
			}
			if !isIdentStart(p.peek()) {
				return Selector{}, p.errf("expected a label name")
			}
			key := p.ident()
			if err := p.expect('='); err != nil {
				return Selector{}, err
			}
			p.ws()
			if p.peek() != '"' {
				return Selector{}, p.errf("label value must be a quoted string")
			}
			val, err := p.stringLit()
			if err != nil {
				return Selector{}, err
			}
			if strings.ContainsAny(val, "{},") {
				return Selector{}, p.errf("label value %s must not contain braces or commas", Excerpt(val))
			}
			labels = append(labels, monitor.Label{Key: key, Val: val})
		}
	}
	return Selector{Name: monitor.LabeledSeries(fam, labels...)}, nil
}
