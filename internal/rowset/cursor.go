package rowset

import (
	"fmt"
	"strconv"

	"wfsql/internal/engine"
	"wfsql/internal/xdm"
)

// Cursor builds the Sequential Set Access workaround BIS and Oracle share:
// while $posVar <= count($setVar/Row), bind the tuple at posVar to
// currentVar, run body, advance posVar (a declared scalar read afresh each
// step, so body may move it). Condition and bind read a per-instance
// snapshot of the tuples, rebuilt only when the set variable holds another
// document or its child-list generation moved: a step's cost does not
// grow with the set.
func Cursor(name, setVar, currentVar, posVar string, body engine.Activity) engine.Activity {
	key := "rowset.cursor/" + name + "/" + setVar
	bind := engine.NewSnippet(name+"_bind", func(ctx *engine.Ctx) error {
		p, err := ctx.Inst.MustVariable(posVar).Int()
		if err != nil {
			return err
		}
		rows, err := snapshot(ctx, key, setVar)
		if err != nil {
			return err
		}
		if p < 1 || p > int64(len(rows)) {
			return fmt.Errorf("rowset: cursor position %d out of range in %s", p, setVar)
		}
		return ctx.SetNode(currentVar, rows[p-1].Clone())
	})
	advance := engine.NewSnippet(name+"_advance", func(ctx *engine.Ctx) error {
		p, err := ctx.Inst.MustVariable(posVar).Int()
		if err != nil {
			return err
		}
		return ctx.SetScalar(posVar, strconv.FormatInt(p+1, 10))
	})
	more := engine.FuncCondition(func(ctx *engine.Ctx) (bool, error) {
		pv, err := ctx.Variable(posVar)
		if err != nil {
			return false, err
		}
		rows, err := snapshot(ctx, key, setVar)
		return err == nil && pv.XPathValue().AsNumber() <= float64(len(rows)), err
	})
	return engine.NewSequence(name,
		engine.NewSnippet(name+"_init", func(ctx *engine.Ctx) error {
			return ctx.SetScalar(posVar, "1")
		}),
		engine.NewWhile(name+"_while", more,
			engine.NewSequence(name+"_iteration", bind, body, advance)),
	)
}

// cursorSnapshot holds the tuples of root as of child-list generation gen.
type cursorSnapshot struct {
	root *xdm.Node
	gen  uint32
	rows []*xdm.Node
}

// snapshot returns the tuples of setVar from the instance's snapshot under
// key, rebuilding it first if the set has changed since it was taken.
func snapshot(ctx *engine.Ctx, key, setVar string) ([]*xdm.Node, error) {
	sv, err := ctx.Variable(setVar)
	if err != nil {
		return nil, err
	}
	if sv.Kind() != engine.XMLVar {
		return nil, fmt.Errorf("rowset: set variable %s does not hold a document", setVar)
	}
	root := sv.Node()
	if root == nil {
		return nil, nil
	}
	v, _ := ctx.Inst.Context(key)
	s, _ := v.(*cursorSnapshot)
	if s == nil || s.root != root || s.gen != root.Gen() {
		s = &cursorSnapshot{root: root, gen: root.Gen(), rows: Rows(root)}
		ctx.Inst.SetContext(key, s)
	}
	return s.rows, nil
}
