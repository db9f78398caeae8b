package xpath

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// --- Lexer ---

type tokKind int

const (
	tEOF tokKind = iota
	tName
	tNumber
	tString
	tSym
	tVar // $name
)

type tok struct {
	kind tokKind
	text string
	num  float64
}

func lex(src string) ([]tok, error) {
	var toks []tok
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '\'' || c == '"':
			q := c
			j := i + 1
			for j < len(src) && src[j] != q {
				j++
			}
			if j >= len(src) {
				return nil, fmt.Errorf("xpath: unterminated string literal")
			}
			toks = append(toks, tok{kind: tString, text: src[i+1 : j]})
			i = j + 1
		case c >= '0' && c <= '9' || (c == '.' && i+1 < len(src) && src[i+1] >= '0' && src[i+1] <= '9'):
			j := i
			for j < len(src) && (src[j] >= '0' && src[j] <= '9' || src[j] == '.') {
				j++
			}
			f, err := strconv.ParseFloat(src[i:j], 64)
			if err != nil {
				return nil, fmt.Errorf("xpath: bad number %q", src[i:j])
			}
			toks = append(toks, tok{kind: tNumber, num: f})
			i = j
		case c == '$':
			j := i + 1
			for j < len(src) && isNameChar(rune(src[j])) {
				j++
			}
			if j == i+1 {
				return nil, fmt.Errorf("xpath: expected variable name after $")
			}
			toks = append(toks, tok{kind: tVar, text: src[i+1 : j]})
			i = j
		case isNameStart(rune(c)):
			j := i
			for j < len(src) && isNameChar(rune(src[j])) {
				j++
			}
			toks = append(toks, tok{kind: tName, text: src[i:j]})
			i = j
		default:
			switch {
			case strings.HasPrefix(src[i:], "//"):
				toks = append(toks, tok{kind: tSym, text: "//"})
				i += 2
			case strings.HasPrefix(src[i:], "!="), strings.HasPrefix(src[i:], "<="), strings.HasPrefix(src[i:], ">="):
				toks = append(toks, tok{kind: tSym, text: src[i : i+2]})
				i += 2
			case strings.ContainsRune("/[]()@,|+-*=<>.", rune(c)):
				toks = append(toks, tok{kind: tSym, text: string(c)})
				i++
			default:
				return nil, fmt.Errorf("xpath: unexpected character %q", string(c))
			}
		}
	}
	toks = append(toks, tok{kind: tEOF})
	return toks, nil
}

func isNameStart(r rune) bool { return r == '_' || unicode.IsLetter(r) }

func isNameChar(r rune) bool {
	return r == '_' || r == '-' || r == ':' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

// --- AST ---

type node interface {
	evalNode(ctx *Context) (Value, error)
}

type binaryOp struct {
	op   string
	l, r node
}

type negOp struct{ x node }

type literalStr struct{ s string }

type literalNum struct{ f float64 }

type varRef struct{ name string }

type funcCall struct {
	name string
	args []node
}

// pathExpr is a location path, optionally rooted at a filter expression
// (e.g. $var/a/b or (expr)[1]/c).
type pathExpr struct {
	base     node // nil for plain location paths
	absolute bool // starts with /
	steps    []step
}

type axisKind int

const (
	axisChild axisKind = iota
	axisDescendant
	axisSelf
	axisParent
	axisAttribute
	axisText
)

type step struct {
	axis  axisKind
	name  string // element/attribute name test; "*" matches any
	preds []node
}

// filterExpr is a primary expression with predicates: (expr)[pred].
type filterExpr struct {
	base  node
	preds []node
}

// --- Parser ---

type xparser struct {
	toks []tok
	pos  int
}

// Expr is a compiled XPath expression.
type Expr struct {
	root node
	src  string
}

// Source returns the original expression text.
func (e *Expr) Source() string { return e.src }

// Compile parses an XPath expression.
func Compile(src string) (*Expr, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &xparser{toks: toks}
	n, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tEOF {
		return nil, fmt.Errorf("xpath: unexpected trailing tokens in %q", src)
	}
	return &Expr{root: n, src: src}, nil
}

// MustCompile compiles an expression and panics on error.
func MustCompile(src string) *Expr {
	e, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return e
}

// Eval evaluates the expression in the given context.
func (e *Expr) Eval(ctx *Context) (Value, error) { return e.root.evalNode(ctx) }

func (p *xparser) peek() tok { return p.toks[p.pos] }

func (p *xparser) peekAt(n int) tok {
	if p.pos+n >= len(p.toks) {
		return p.toks[len(p.toks)-1]
	}
	return p.toks[p.pos+n]
}

func (p *xparser) next() tok {
	t := p.toks[p.pos]
	if t.kind != tEOF {
		p.pos++
	}
	return t
}

func (p *xparser) acceptSym(s string) bool {
	if t := p.peek(); t.kind == tSym && t.text == s {
		p.pos++
		return true
	}
	return false
}

func (p *xparser) acceptName(s string) bool {
	if t := p.peek(); t.kind == tName && t.text == s {
		p.pos++
		return true
	}
	return false
}

func (p *xparser) expectSym(s string) error {
	if !p.acceptSym(s) {
		return fmt.Errorf("xpath: expected %q near token %d", s, p.pos)
	}
	return nil
}

func (p *xparser) parseExpr() (node, error) { return p.parseOr() }

func (p *xparser) parseOr() (node, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptName("or") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &binaryOp{op: "or", l: l, r: r}
	}
	return l, nil
}

func (p *xparser) parseAnd() (node, error) {
	l, err := p.parseEquality()
	if err != nil {
		return nil, err
	}
	for p.acceptName("and") {
		r, err := p.parseEquality()
		if err != nil {
			return nil, err
		}
		l = &binaryOp{op: "and", l: l, r: r}
	}
	return l, nil
}

func (p *xparser) parseEquality() (node, error) {
	l, err := p.parseRelational()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tSym && (t.text == "=" || t.text == "!=") {
			p.pos++
			r, err := p.parseRelational()
			if err != nil {
				return nil, err
			}
			l = &binaryOp{op: t.text, l: l, r: r}
			continue
		}
		return l, nil
	}
}

func (p *xparser) parseRelational() (node, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tSym && (t.text == "<" || t.text == "<=" || t.text == ">" || t.text == ">=") {
			p.pos++
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			l = &binaryOp{op: t.text, l: l, r: r}
			continue
		}
		return l, nil
	}
}

func (p *xparser) parseAdditive() (node, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tSym && (t.text == "+" || t.text == "-") {
			p.pos++
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			l = &binaryOp{op: t.text, l: l, r: r}
			continue
		}
		return l, nil
	}
}

func (p *xparser) parseMultiplicative() (node, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		op := ""
		if t.kind == tSym && t.text == "*" {
			op = "*"
		} else if t.kind == tName && (t.text == "div" || t.text == "mod") {
			op = t.text
		}
		if op == "" {
			return l, nil
		}
		p.pos++
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &binaryOp{op: op, l: l, r: r}
	}
}

func (p *xparser) parseUnary() (node, error) {
	if p.acceptSym("-") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &negOp{x: x}, nil
	}
	return p.parseUnion()
}

func (p *xparser) parseUnion() (node, error) {
	l, err := p.parsePath()
	if err != nil {
		return nil, err
	}
	for p.acceptSym("|") {
		r, err := p.parsePath()
		if err != nil {
			return nil, err
		}
		l = &binaryOp{op: "|", l: l, r: r}
	}
	return l, nil
}

// parsePath parses a PathExpr: a location path, or a filter expression
// optionally continued with /steps.
func (p *xparser) parsePath() (node, error) {
	t := p.peek()
	// Absolute location path.
	if t.kind == tSym && (t.text == "/" || t.text == "//") {
		pe := &pathExpr{absolute: true}
		if t.text == "//" {
			p.pos++
			st, err := p.parseStep()
			if err != nil {
				return nil, err
			}
			st.axis = descendantize(st.axis)
			pe.steps = append(pe.steps, st)
		} else {
			p.pos++
			if p.isStepStart() {
				st, err := p.parseStep()
				if err != nil {
					return nil, err
				}
				pe.steps = append(pe.steps, st)
			}
		}
		if err := p.parseMoreSteps(pe); err != nil {
			return nil, err
		}
		return pe, nil
	}
	// Filter expression start? ( literal, number, var, '(' , or function call )
	if t.kind == tString || t.kind == tNumber || t.kind == tVar ||
		(t.kind == tSym && t.text == "(") ||
		(t.kind == tName && p.peekAt(1).kind == tSym && p.peekAt(1).text == "(" && !isNodeTypeTest(t.text)) {
		base, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		preds, err := p.parsePredicates()
		if err != nil {
			return nil, err
		}
		var b node = &filterExpr{base: base, preds: preds}
		if len(preds) == 0 {
			b = base
		}
		// Continued path: $var/a/b
		if ts := p.peek(); ts.kind == tSym && (ts.text == "/" || ts.text == "//") {
			pe := &pathExpr{base: b}
			if err := p.parseMoreSteps(pe); err != nil {
				return nil, err
			}
			return pe, nil
		}
		return b, nil
	}
	// Relative location path.
	if p.isStepStart() {
		pe := &pathExpr{}
		st, err := p.parseStep()
		if err != nil {
			return nil, err
		}
		pe.steps = append(pe.steps, st)
		if err := p.parseMoreSteps(pe); err != nil {
			return nil, err
		}
		return pe, nil
	}
	return nil, fmt.Errorf("xpath: unexpected token in path expression")
}

func (p *xparser) parseMoreSteps(pe *pathExpr) error {
	for {
		t := p.peek()
		if t.kind != tSym || (t.text != "/" && t.text != "//") {
			return nil
		}
		p.pos++
		st, err := p.parseStep()
		if err != nil {
			return err
		}
		if t.text == "//" {
			st.axis = descendantize(st.axis)
		}
		pe.steps = append(pe.steps, st)
	}
}

func descendantize(a axisKind) axisKind {
	if a == axisChild {
		return axisDescendant
	}
	return a
}

func (p *xparser) isStepStart() bool {
	t := p.peek()
	if t.kind == tName {
		return true
	}
	if t.kind == tSym && (t.text == "@" || t.text == "*" || t.text == "." || t.text == "..") {
		return true
	}
	// ".." arrives as two "." tokens.
	return false
}

func isNodeTypeTest(name string) bool {
	return name == "text" || name == "node"
}

func (p *xparser) parseStep() (step, error) {
	st := step{axis: axisChild}
	t := p.peek()
	switch {
	case t.kind == tSym && t.text == ".":
		p.pos++
		if p.acceptSym(".") {
			st.axis = axisParent
		} else {
			st.axis = axisSelf
		}
		return st, nil
	case t.kind == tSym && t.text == "@":
		p.pos++
		st.axis = axisAttribute
		nt := p.next()
		if nt.kind == tName {
			st.name = nt.text
		} else if nt.kind == tSym && nt.text == "*" {
			st.name = "*"
		} else {
			return st, fmt.Errorf("xpath: expected attribute name after @")
		}
	case t.kind == tSym && t.text == "*":
		p.pos++
		st.name = "*"
	case t.kind == tName:
		p.pos++
		if isNodeTypeTest(t.text) && p.acceptSym("(") {
			if err := p.expectSym(")"); err != nil {
				return st, err
			}
			if t.text == "text" {
				st.axis = axisText
			} else {
				st.name = "*" // node() — treat as any element child
			}
		} else {
			st.name = t.text
		}
	default:
		return st, fmt.Errorf("xpath: expected step")
	}
	var err error
	st.preds, err = p.parsePredicates()
	return st, err
}

// parsePredicates parses any [expr] predicates that follow.
func (p *xparser) parsePredicates() ([]node, error) {
	var preds []node
	for p.acceptSym("[") {
		pred, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectSym("]"); err != nil {
			return nil, err
		}
		preds = append(preds, pred)
	}
	return preds, nil
}

func (p *xparser) parsePrimary() (node, error) {
	t := p.next()
	switch t.kind {
	case tString:
		return &literalStr{s: t.text}, nil
	case tNumber:
		return &literalNum{f: t.num}, nil
	case tVar:
		return &varRef{name: t.text}, nil
	case tSym:
		if t.text == "(" {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSym(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	case tName:
		if p.acceptSym("(") {
			fc := &funcCall{name: t.text}
			if !p.acceptSym(")") {
				for {
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					fc.args = append(fc.args, a)
					if !p.acceptSym(",") {
						break
					}
				}
				if err := p.expectSym(")"); err != nil {
					return nil, err
				}
			}
			return fc, nil
		}
	}
	return nil, fmt.Errorf("xpath: unexpected token in primary expression")
}
