package xpath

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"wfsql/internal/xdm"
)

// refEval evaluates path, filter and union expressions the way the
// evaluator did before steps stopped paying for a dedup map from a single
// context node and predicates stopped allocating a context per node:
// every step dedups through a map, every predicate test gets a fresh
// context. Other expressions defer to the evaluator.
func refEval(n node, ctx *Context) (Value, error) {
	switch x := n.(type) {
	case *pathExpr:
		var current []*xdm.Node
		switch {
		case x.base != nil:
			bv, err := refEval(x.base, ctx)
			if err != nil {
				return Value{}, err
			}
			if bv.Kind != KindNodeSet {
				return Value{}, fmt.Errorf("path applied to non-node-set value")
			}
			current = bv.Nodes
		case x.absolute:
			current = []*xdm.Node{ctx.Node.Root()}
			if len(x.steps) > 0 && x.steps[0].axis == axisChild {
				st := x.steps[0]
				var matched []*xdm.Node
				for _, c := range current {
					if nameMatches(c, st.name) {
						matched = append(matched, c)
					}
				}
				matched, err := refStepPredicates(matched, st, ctx)
				if err != nil {
					return Value{}, err
				}
				return refSteps(matched, x.steps[1:], ctx)
			}
		default:
			current = []*xdm.Node{ctx.Node}
		}
		return refSteps(current, x.steps, ctx)
	case *filterExpr:
		v, err := refEval(x.base, ctx)
		if err != nil {
			return Value{}, err
		}
		nodes := v.Nodes
		for _, pred := range x.preds {
			if nodes, err = refPredicate(nodes, pred, ctx); err != nil {
				return Value{}, err
			}
		}
		return NodeSet(nodes...), nil
	case *binaryOp:
		if x.op != "|" {
			break
		}
		l, err := refEval(x.l, ctx)
		if err != nil {
			return Value{}, err
		}
		r, err := refEval(x.r, ctx)
		if err != nil {
			return Value{}, err
		}
		seen := map[*xdm.Node]bool{}
		var out []*xdm.Node
		for _, m := range append(append([]*xdm.Node{}, l.Nodes...), r.Nodes...) {
			if !seen[m] {
				seen[m] = true
				out = append(out, m)
			}
		}
		return NodeSet(out...), nil
	}
	return n.evalNode(ctx)
}

func refSteps(current []*xdm.Node, steps []step, ctx *Context) (Value, error) {
	for _, st := range steps {
		var next []*xdm.Node
		seen := map[*xdm.Node]bool{}
		add := func(n *xdm.Node) {
			if !seen[n] {
				seen[n] = true
				next = append(next, n)
			}
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
		if next, err = refStepPredicates(next, st, ctx); err != nil {
			return Value{}, err
		}
		current = next
	}
	return NodeSet(current...), nil
}

func refStepPredicates(nodes []*xdm.Node, st step, ctx *Context) ([]*xdm.Node, error) {
	var err error
	for _, pred := range st.preds {
		if nodes, err = refPredicate(nodes, pred, ctx); err != nil {
			return nil, err
		}
	}
	return nodes, nil
}

func refPredicate(nodes []*xdm.Node, pred node, ctx *Context) ([]*xdm.Node, error) {
	var out []*xdm.Node
	for i, n := range nodes {
		sub := &Context{Node: n, Position: i + 1, Size: len(nodes), Vars: ctx.Vars, Funcs: ctx.Funcs}
		pv, err := pred.evalNode(sub)
		if err != nil {
			return nil, err
		}
		keep := pv.AsBool()
		if pv.Kind == KindNumber {
			keep = int(pv.Num) == i+1
		}
		if keep {
			out = append(out, n)
		}
	}
	return out, nil
}

// randomTree builds a document of a/b/c elements with text and
// attributes, and returns its root and every element in document order.
func randomTree(rng *rand.Rand) (*xdm.Node, []*xdm.Node) {
	names := []string{"a", "b", "c"}
	root := xdm.NewElement("r")
	all := []*xdm.Node{root}
	var grow func(n *xdm.Node, depth int)
	grow = func(n *xdm.Node, depth int) {
		for i := rng.Intn(4); i > 0 && depth < 5; i-- {
			c := n.Element(names[rng.Intn(len(names))])
			all = append(all, c)
			if rng.Intn(3) == 0 {
				c.SetAttr("k", fmt.Sprint(rng.Intn(3)))
			}
			if rng.Intn(3) == 0 {
				c.AppendChild(xdm.NewText(fmt.Sprint(rng.Intn(5))))
			}
			grow(c, depth+1)
		}
	}
	grow(root, 0)
	return root, all
}

// sameNodes compares node lists: elements and text nodes by identity,
// the synthetic attribute nodes by name and value.
func sameNodes(got, want []*xdm.Node) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		g, w := got[i], want[i]
		if g == w {
			continue
		}
		if g.Parent() != nil || w.Parent() != nil || g.Name != w.Name || g.Text != w.Text {
			return false
		}
	}
	return true
}

// TestEvalStepsMatchesReference checks on random documents that paths
// stepping from many context nodes (descendant, parent, union, with
// predicates) return exactly the node list the always-dedup evaluator
// returned, in the same order.
func TestEvalStepsMatchesReference(t *testing.T) {
	exprs := []string{
		"$d//a", "$d//a/..", "$d//*/..", "$d//a//b", "$d//*//*",
		"$d//a/../b", "$d/a/b/../..", "$d//b/../../*",
		"($d//a | $d//b)/..", "$d//a/.. | $d//b/..", "($d//c | $d//a)//b",
		"$d//b[1]/..", "$d//a[b]/c", "$d//*[@k = 1]/..", "$d//a[last()]//text()",
		"$d//*/@k", "$d//a/@*", "$d//c/text()", "$d//*/.", "$d//a[2]",
		"$d//*[count(..//a) > 1]", "//a/..", "/r//b/..", ".//c/..", "../*//a",
	}
	compiled := make([]*Expr, len(exprs))
	for i, src := range exprs {
		compiled[i] = MustCompile(src)
	}
	rng := rand.New(rand.NewSource(7))
	nonEmpty := make([]int, len(exprs))
	for trial := 0; trial < 200; trial++ {
		root, all := randomTree(rng)
		ctx := &Context{Node: all[rng.Intn(len(all))], Position: 1, Size: 1, Vars: VarMap{"d": NodeSet(root)}}
		for i, e := range compiled {
			got, err := e.Eval(ctx)
			if err != nil {
				t.Fatalf("%s: %v", exprs[i], err)
			}
			want, err := refEval(e.root, ctx)
			if err != nil {
				t.Fatalf("%s (reference): %v", exprs[i], err)
			}
			if !sameNodes(got.Nodes, want.Nodes) {
				t.Fatalf("trial %d %s on %s:\n got %d nodes\nwant %d nodes", trial, exprs[i], root, len(got.Nodes), len(want.Nodes))
			}
			if len(want.Nodes) > 0 {
				nonEmpty[i]++
			}
		}
	}
	for i, n := range nonEmpty {
		if n == 0 {
			t.Errorf("%s selected nothing on every document: the case tests nothing", exprs[i])
		}
	}
}

// TestCoreFunctionArity checks the table-driven argument-count check
// names the function and both counts.
func TestCoreFunctionArity(t *testing.T) {
	for src, want := range map[string]string{
		"count()":                    "xpath: count() expects 1 argument(s), got 0",
		"translate('a', 'b')":        "xpath: translate() expects 3 argument(s), got 2",
		"contains('a')":              "xpath: contains() expects 2 argument(s), got 1",
		"round(1, 2)":                "xpath: round() expects 1 argument(s), got 2",
		"not(true(), false())":       "xpath: not() expects 1 argument(s), got 2",
		"substring-after('a')":       "xpath: substring-after() expects 2 argument(s), got 1",
		"starts-with('a', 'b', 'c')": "xpath: starts-with() expects 2 argument(s), got 3",
	} {
		if _, err := MustCompile(src).Eval(&Context{}); err == nil || err.Error() != want {
			t.Errorf("%s: error %v, want %q", src, err, want)
		}
	}
	if v, err := MustCompile("translate('abc', 'b', 'x')").Eval(&Context{}); err != nil || v.AsString() != "axc" {
		t.Errorf("translate with 3 arguments: %v, %v", v, err)
	}
}

// refEqualityCompare and refRelationalCompare are the comparisons as the
// evaluator wrote them out case by case, before they shared existential.
func refEqualityCompare(l, r Value, negate bool) bool {
	eq := func(a, b Value) bool {
		// If either is a boolean, compare as booleans; else if either is a
		// number, compare as numbers; else as strings.
		if a.Kind == KindBoolean || b.Kind == KindBoolean {
			return a.AsBool() == b.AsBool()
		}
		if a.Kind == KindNumber || b.Kind == KindNumber {
			return a.AsNumber() == b.AsNumber()
		}
		return a.AsString() == b.AsString()
	}
	if l.Kind == KindNodeSet && r.Kind == KindNodeSet {
		for _, ln := range l.Nodes {
			for _, rn := range r.Nodes {
				if (ln.TextContent() == rn.TextContent()) != negate {
					return true
				}
			}
		}
		return false
	}
	if l.Kind == KindNodeSet {
		for _, ln := range l.Nodes {
			if eq(String(ln.TextContent()), r) != negate {
				return true
			}
		}
		return false
	}
	if r.Kind == KindNodeSet {
		for _, rn := range r.Nodes {
			if eq(l, String(rn.TextContent())) != negate {
				return true
			}
		}
		return false
	}
	return eq(l, r) != negate
}

func refRelationalCompare(l, r Value, op string) bool {
	cmp := func(a, b float64) bool {
		switch op {
		case "<":
			return a < b
		case "<=":
			return a <= b
		case ">":
			return a > b
		case ">=":
			return a >= b
		}
		return false
	}
	if l.Kind == KindNodeSet {
		for _, ln := range l.Nodes {
			if r.Kind == KindNodeSet {
				for _, rn := range r.Nodes {
					if cmp(String(ln.TextContent()).AsNumber(), String(rn.TextContent()).AsNumber()) {
						return true
					}
				}
			} else if cmp(String(ln.TextContent()).AsNumber(), r.AsNumber()) {
				return true
			}
		}
		return false
	}
	if r.Kind == KindNodeSet {
		for _, rn := range r.Nodes {
			if cmp(l.AsNumber(), String(rn.TextContent()).AsNumber()) {
				return true
			}
		}
		return false
	}
	return cmp(l.AsNumber(), r.AsNumber())
}

// TestComparisonsMatchReference checks = != < <= > >= over every pairing
// of node-sets (empty, one, several nodes), strings, numbers (NaN
// included) and booleans against the case-by-case comparisons.
func TestComparisonsMatchReference(t *testing.T) {
	texts := []string{"", "0", "1", "2", "abc", " 1 ", "true", "NaN"}
	rng := rand.New(rand.NewSource(11))
	nodes := func(n int) Value {
		var out []*xdm.Node
		for i := 0; i < n; i++ {
			out = append(out, xdm.NewElement("v").SetText(texts[rng.Intn(len(texts))]))
		}
		return NodeSet(out...)
	}
	var values []Value
	for i := 0; i < 40; i++ {
		values = append(values, nodes(i%4))
	}
	for _, s := range texts {
		values = append(values, String(s))
	}
	for _, f := range []float64{0, 1, 2, -1, 0.5, math.NaN()} {
		values = append(values, Number(f))
	}
	values = append(values, Boolean(true), Boolean(false))
	for _, l := range values {
		for _, r := range values {
			for _, neg := range []bool{false, true} {
				if got, want := equalityCompare(l, r, neg), refEqualityCompare(l, r, neg); got != want {
					t.Fatalf("equality(%v, %v, negate=%v) = %v, want %v", l, r, neg, got, want)
				}
			}
			for _, op := range []string{"<", "<=", ">", ">="} {
				if got, want := relationalCompare(l, r, op), refRelationalCompare(l, r, op); got != want {
					t.Fatalf("%v %s %v = %v, want %v", l, op, r, got, want)
				}
			}
		}
	}
}
