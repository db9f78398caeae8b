package xpath

import (
	"fmt"
	"math"
	"strings"

	"wfsql/internal/xdm"
)

func (l *literalStr) evalNode(ctx *Context) (Value, error) { return String(l.s), nil }

func (l *literalNum) evalNode(ctx *Context) (Value, error) { return Number(l.f), nil }

func (v *varRef) evalNode(ctx *Context) (Value, error) {
	if ctx.Vars == nil {
		return Value{}, fmt.Errorf("xpath: no variable resolver for $%s", v.name)
	}
	return ctx.Vars.ResolveVariable(v.name)
}

func (n *negOp) evalNode(ctx *Context) (Value, error) {
	v, err := n.x.evalNode(ctx)
	if err != nil {
		return Value{}, err
	}
	return Number(-v.AsNumber()), nil
}

func (b *binaryOp) evalNode(ctx *Context) (Value, error) {
	switch b.op {
	case "or":
		l, err := b.l.evalNode(ctx)
		if err != nil {
			return Value{}, err
		}
		if l.AsBool() {
			return Boolean(true), nil
		}
		r, err := b.r.evalNode(ctx)
		if err != nil {
			return Value{}, err
		}
		return Boolean(r.AsBool()), nil
	case "and":
		l, err := b.l.evalNode(ctx)
		if err != nil {
			return Value{}, err
		}
		if !l.AsBool() {
			return Boolean(false), nil
		}
		r, err := b.r.evalNode(ctx)
		if err != nil {
			return Value{}, err
		}
		return Boolean(r.AsBool()), nil
	}
	l, err := b.l.evalNode(ctx)
	if err != nil {
		return Value{}, err
	}
	r, err := b.r.evalNode(ctx)
	if err != nil {
		return Value{}, err
	}
	switch b.op {
	case "=", "!=":
		return Boolean(equalityCompare(l, r, b.op == "!=")), nil
	case "<", "<=", ">", ">=":
		return Boolean(relationalCompare(l, r, b.op)), nil
	case "+":
		return Number(l.AsNumber() + r.AsNumber()), nil
	case "-":
		return Number(l.AsNumber() - r.AsNumber()), nil
	case "*":
		return Number(l.AsNumber() * r.AsNumber()), nil
	case "div":
		return Number(l.AsNumber() / r.AsNumber()), nil
	case "mod":
		return Number(math.Mod(l.AsNumber(), r.AsNumber())), nil
	case "|":
		if l.Kind != KindNodeSet || r.Kind != KindNodeSet {
			return Value{}, fmt.Errorf("xpath: union requires node-sets")
		}
		seen := map[*xdm.Node]bool{}
		var out []*xdm.Node
		for _, n := range append(append([]*xdm.Node{}, l.Nodes...), r.Nodes...) {
			if !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
		return NodeSet(out...), nil
	}
	return Value{}, fmt.Errorf("xpath: unknown operator %s", b.op)
}

// equalityCompare implements XPath 1.0 = / != semantics including node-set
// existential comparison.
func equalityCompare(l, r Value, negate bool) bool {
	return existential(l, r, func(a, b Value) bool {
		// If either is a boolean, compare as booleans; else if either is a
		// number, compare as numbers; else as strings.
		switch {
		case a.Kind == KindBoolean || b.Kind == KindBoolean:
			return (a.AsBool() == b.AsBool()) != negate
		case a.Kind == KindNumber || b.Kind == KindNumber:
			return (a.AsNumber() == b.AsNumber()) != negate
		}
		return (a.AsString() == b.AsString()) != negate
	})
}

func relationalCompare(l, r Value, op string) bool {
	return existential(l, r, func(a, b Value) bool {
		x, y := a.AsNumber(), b.AsNumber()
		switch op {
		case "<":
			return x < y
		case "<=":
			return x <= y
		case ">":
			return x > y
		case ">=":
			return x >= y
		}
		return false
	})
}

// existential reports whether cmp holds for some pairing of l's and r's
// items, where a node-set contributes the string value of each node and
// any other value is its own single item.
func existential(l, r Value, cmp func(a, b Value) bool) bool {
	return anyItem(l, func(a Value) bool {
		return anyItem(r, func(b Value) bool { return cmp(a, b) })
	})
}

func anyItem(v Value, pred func(Value) bool) bool {
	if v.Kind != KindNodeSet {
		return pred(v)
	}
	for _, n := range v.Nodes {
		if pred(String(n.TextContent())) {
			return true
		}
	}
	return false
}

func (f *filterExpr) evalNode(ctx *Context) (Value, error) {
	v, err := f.base.evalNode(ctx)
	if err != nil {
		return Value{}, err
	}
	if v.Kind != KindNodeSet {
		return Value{}, fmt.Errorf("xpath: predicate applied to non-node-set")
	}
	nodes, err := applyPredicates(v.Nodes, f.preds, ctx)
	if err != nil {
		return Value{}, err
	}
	return NodeSet(nodes...), nil
}

func applyPredicate(nodes []*xdm.Node, pred node, ctx *Context) ([]*xdm.Node, error) {
	var out []*xdm.Node
	// One sub-context serves every node: evaluation never retains it.
	sub := &Context{Size: len(nodes), Vars: ctx.Vars, Funcs: ctx.Funcs}
	for i, n := range nodes {
		sub.Node, sub.Position = n, i+1
		pv, err := pred.evalNode(sub)
		if err != nil {
			return nil, err
		}
		keep := false
		if pv.Kind == KindNumber {
			keep = int(pv.Num) == i+1
		} else {
			keep = pv.AsBool()
		}
		if keep {
			out = append(out, n)
		}
	}
	return out, nil
}

func (p *pathExpr) evalNode(ctx *Context) (Value, error) {
	var current []*xdm.Node
	switch {
	case p.base != nil:
		bv, err := p.base.evalNode(ctx)
		if err != nil {
			return Value{}, err
		}
		if bv.Kind != KindNodeSet {
			return Value{}, fmt.Errorf("xpath: path applied to non-node-set value")
		}
		current = bv.Nodes
	case p.absolute:
		if ctx.Node == nil {
			return Value{}, fmt.Errorf("xpath: absolute path with no context node")
		}
		current = []*xdm.Node{ctx.Node.Root()}
		// An absolute path's first step matches against the root element
		// itself (document-node semantics): /a selects the root if named a.
		if len(p.steps) > 0 && p.steps[0].axis == axisChild {
			st := p.steps[0]
			var matched []*xdm.Node
			for _, n := range current {
				if nameMatches(n, st.name) {
					matched = append(matched, n)
				}
			}
			var err error
			matched, err = applyPredicates(matched, st.preds, ctx)
			if err != nil {
				return Value{}, err
			}
			current = matched
			return p.evalSteps(current, p.steps[1:], ctx)
		}
	default:
		if ctx.Node == nil {
			return Value{}, fmt.Errorf("xpath: relative path with no context node")
		}
		current = []*xdm.Node{ctx.Node}
	}
	return p.evalSteps(current, p.steps, ctx)
}

func (p *pathExpr) evalSteps(current []*xdm.Node, steps []step, ctx *Context) (Value, error) {
	for _, st := range steps {
		var next []*xdm.Node
		// Only a step from several context nodes can reach a node twice,
		// so only such a step pays for the dedup map.
		var seen map[*xdm.Node]bool
		if len(current) > 1 {
			seen = map[*xdm.Node]bool{}
		}
		add := func(n *xdm.Node) {
			if seen != nil {
				if seen[n] {
					return
				}
				seen[n] = true
			}
			next = append(next, n)
		}
		for _, n := range current {
			switch st.axis {
			case axisChild:
				for _, c := range n.Children {
					if c.Kind == xdm.ElementNode && nameMatches(c, st.name) {
						add(c)
					}
				}
			case axisDescendant:
				var walk func(*xdm.Node)
				walk = func(m *xdm.Node) {
					for _, c := range m.Children {
						if c.Kind == xdm.ElementNode {
							if nameMatches(c, st.name) {
								add(c)
							}
							walk(c)
						}
					}
				}
				if nameMatches(n, st.name) {
					add(n)
				}
				walk(n)
			case axisSelf:
				add(n)
			case axisParent:
				if pn := n.Parent(); pn != nil {
					add(pn)
				}
			case axisAttribute:
				if st.name == "*" {
					for _, a := range n.Attrs {
						add(attrNode(a.Name, a.Value))
					}
				} else if v, ok := n.Attr(st.name); ok {
					add(attrNode(st.name, v))
				}
			case axisText:
				for _, c := range n.Children {
					if c.Kind == xdm.TextNode {
						add(c)
					}
				}
			}
		}
		var err error
		next, err = applyPredicates(next, st.preds, ctx)
		if err != nil {
			return Value{}, err
		}
		current = next
	}
	return NodeSet(current...), nil
}

func applyPredicates(nodes []*xdm.Node, preds []node, ctx *Context) ([]*xdm.Node, error) {
	var err error
	for _, pred := range preds {
		nodes, err = applyPredicate(nodes, pred, ctx)
		if err != nil {
			return nil, err
		}
	}
	return nodes, nil
}

// attrNode wraps an attribute as a synthetic text node so that its string
// value participates in comparisons and extraction uniformly.
func attrNode(name, value string) *xdm.Node {
	n := xdm.NewText(value)
	n.Name = name
	return n
}

func nameMatches(n *xdm.Node, test string) bool {
	if test == "*" {
		return true
	}
	if n.Name == test {
		return true
	}
	// Ignore-prefix matching: a test without a prefix matches a prefixed
	// element of the same local name (documents in the products mix
	// prefixed and unprefixed row elements).
	if !strings.Contains(test, ":") {
		if i := strings.LastIndex(n.Name, ":"); i >= 0 && n.Name[i+1:] == test {
			return true
		}
	}
	return false
}

func (f *funcCall) evalNode(ctx *Context) (Value, error) {
	// Extension functions carry a namespace prefix.
	if strings.Contains(f.name, ":") {
		if ctx.Funcs == nil {
			return Value{}, fmt.Errorf("xpath: no function resolver for %s()", f.name)
		}
		args, err := f.evalArgs(ctx)
		if err != nil {
			return Value{}, err
		}
		return ctx.Funcs.CallFunction(f.name, args)
	}
	return f.evalCore(ctx)
}

func (f *funcCall) evalArgs(ctx *Context) ([]Value, error) {
	args := make([]Value, len(f.args))
	for i, a := range f.args {
		v, err := a.evalNode(ctx)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	return args, nil
}

// coreArity is the argument count of each fixed-arity core function.
var coreArity = map[string]int{
	"count": 1, "sum": 1, "number": 1, "boolean": 1, "not": 1,
	"contains": 2, "starts-with": 2, "substring-before": 2, "substring-after": 2,
	"translate": 3, "floor": 1, "ceiling": 1, "round": 1,
}

func (f *funcCall) evalCore(ctx *Context) (Value, error) {
	switch f.name {
	case "position":
		return Number(float64(ctx.Position)), nil
	case "last":
		return Number(float64(ctx.Size)), nil
	case "true":
		return Boolean(true), nil
	case "false":
		return Boolean(false), nil
	}
	args, err := f.evalArgs(ctx)
	if err != nil {
		return Value{}, err
	}
	if n, ok := coreArity[f.name]; ok && len(args) != n {
		return Value{}, fmt.Errorf("xpath: %s() expects %d argument(s), got %d", f.name, n, len(args))
	}
	switch f.name {
	case "count":
		if args[0].Kind != KindNodeSet {
			return Value{}, fmt.Errorf("xpath: count() requires a node-set")
		}
		return Number(float64(len(args[0].Nodes))), nil
	case "sum":
		if args[0].Kind != KindNodeSet {
			return Value{}, fmt.Errorf("xpath: sum() requires a node-set")
		}
		total := 0.0
		for _, n := range args[0].Nodes {
			total += String(n.TextContent()).AsNumber()
		}
		return Number(total), nil
	case "string":
		if len(args) == 0 {
			if ctx.Node == nil {
				return String(""), nil
			}
			return String(ctx.Node.TextContent()), nil
		}
		return String(args[0].AsString()), nil
	case "number":
		return Number(args[0].AsNumber()), nil
	case "boolean":
		return Boolean(args[0].AsBool()), nil
	case "not":
		return Boolean(!args[0].AsBool()), nil
	case "concat":
		var b strings.Builder
		for _, a := range args {
			b.WriteString(a.AsString())
		}
		return String(b.String()), nil
	case "contains":
		return Boolean(strings.Contains(args[0].AsString(), args[1].AsString())), nil
	case "starts-with":
		return Boolean(strings.HasPrefix(args[0].AsString(), args[1].AsString())), nil
	case "substring-before":
		s, sep := args[0].AsString(), args[1].AsString()
		if i := strings.Index(s, sep); i >= 0 {
			return String(s[:i]), nil
		}
		return String(""), nil
	case "substring-after":
		s, sep := args[0].AsString(), args[1].AsString()
		if i := strings.Index(s, sep); i >= 0 {
			return String(s[i+len(sep):]), nil
		}
		return String(""), nil
	case "substring":
		if len(args) != 2 && len(args) != 3 {
			return Value{}, fmt.Errorf("xpath: substring() expects 2 or 3 arguments")
		}
		s := args[0].AsString()
		start := int(math.Round(args[1].AsNumber()))
		length := len(s)
		if len(args) == 3 {
			length = int(math.Round(args[2].AsNumber()))
		}
		// XPath 1-based indexing.
		from := start - 1
		to := from + length
		if len(args) == 2 {
			to = len(s)
		}
		if from < 0 {
			from = 0
		}
		if to > len(s) {
			to = len(s)
		}
		if from >= len(s) || to <= from {
			return String(""), nil
		}
		return String(s[from:to]), nil
	case "string-length":
		if len(args) == 0 {
			if ctx.Node == nil {
				return Number(0), nil
			}
			return Number(float64(len(ctx.Node.TextContent()))), nil
		}
		return Number(float64(len(args[0].AsString()))), nil
	case "normalize-space":
		s := ""
		if len(args) == 0 {
			if ctx.Node != nil {
				s = ctx.Node.TextContent()
			}
		} else {
			s = args[0].AsString()
		}
		return String(strings.Join(strings.Fields(s), " ")), nil
	case "translate":
		s, from, to := args[0].AsString(), args[1].AsString(), args[2].AsString()
		var b strings.Builder
		for _, r := range s {
			if i := strings.IndexRune(from, r); i >= 0 {
				if i < len(to) {
					b.WriteByte(to[i])
				}
				continue
			}
			b.WriteRune(r)
		}
		return String(b.String()), nil
	case "floor":
		return Number(math.Floor(args[0].AsNumber())), nil
	case "ceiling":
		return Number(math.Ceil(args[0].AsNumber())), nil
	case "round":
		return Number(math.Round(args[0].AsNumber())), nil
	case "name", "local-name":
		if len(args) == 0 {
			if ctx.Node == nil {
				return String(""), nil
			}
			return String(localOrFull(ctx.Node.Name, f.name)), nil
		}
		if args[0].Kind != KindNodeSet || len(args[0].Nodes) == 0 {
			return String(""), nil
		}
		return String(localOrFull(args[0].Nodes[0].Name, f.name)), nil
	}
	return Value{}, fmt.Errorf("xpath: unknown function %s()", f.name)
}

func localOrFull(name, fn string) string {
	if fn == "local-name" {
		if i := strings.LastIndex(name, ":"); i >= 0 {
			return name[i+1:]
		}
	}
	return name
}
