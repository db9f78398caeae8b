package xdm

import (
	"testing"
	"unsafe"
)

// TestGenChangesOnEveryChildListMutation checks that each method that
// changes a node's children moves its generation, and that attribute
// writes and changes below a child do not.
func TestGenChangesOnEveryChildListMutation(t *testing.T) {
	n := NewElement("RowSet")
	a, b := NewElement("Row"), NewElement("Row")
	steps := []struct {
		name   string
		mutate func()
		moves  bool
	}{
		{"AppendChild", func() { n.AppendChild(a) }, true},
		{"InsertChildAfter", func() { _ = n.InsertChildAfter(a, b) }, true},
		{"InsertChildAfter first", func() { _ = n.InsertChildAfter(nil, NewElement("x")) }, true},
		{"RemoveChild", func() { n.RemoveChild(b) }, true},
		{"RemoveChild of a stranger", func() { n.RemoveChild(NewElement("y")) }, false},
		{"SetAttr", func() { n.SetAttr("k", "v") }, false},
		{"grandchild change", func() { a.ElementWithText("ItemID", "bolt") }, false},
		{"SetText", func() { n.SetText("t") }, true},
		{"ReplaceContent", func() { n.ReplaceContent(NewElement("src").SetAttr("k", "w")) }, true},
	}
	for _, s := range steps {
		before := n.Gen()
		s.mutate()
		if moved := n.Gen() != before; moved != s.moves {
			t.Errorf("%s: generation moved = %v, want %v", s.name, moved, s.moves)
		}
	}
	if v, _ := n.Attr("k"); len(n.Children) != 0 || v != "w" {
		t.Errorf("ReplaceContent left %d children and k=%q", len(n.Children), v)
	}
	src := NewElement("src")
	src.ElementWithText("ItemID", "bolt")
	old := n.Element("old")
	n.ReplaceContent(src)
	if len(n.Children) != 1 || n.Children[0].Parent() != n || old.Parent() != nil {
		t.Errorf("ReplaceContent: children %d, moved child's parent %p, old child's parent %p", len(n.Children), n.Children[0].Parent(), old.Parent())
	}
}

// TestNodeSize pins Node to its 96-byte size class: the generation
// counter is packed beside Kind rather than growing every node.
func TestNodeSize(t *testing.T) {
	if s := unsafe.Sizeof(Node{}); s != 96 {
		t.Errorf("Node is %d bytes, want 96", s)
	}
}
