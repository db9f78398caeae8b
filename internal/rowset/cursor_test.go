package rowset_test

import (
	"fmt"
	"os"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"wfsql/internal/bis"
	"wfsql/internal/engine"
	"wfsql/internal/journal"
	"wfsql/internal/rowset"
	"wfsql/internal/sqldb"
	"wfsql/internal/wsbus"
	"wfsql/internal/xdm"
)

// referenceCursor is the cursor BIS and Oracle each built before they
// shared rowset.Cursor: the loop condition is the XPath expression
// $pos <= count($set/Row), evaluated from scratch on every step, and the
// bind step re-walks the set to find the row at pos. It is the oracle
// the shared cursor is checked against.
func referenceCursor(name, setVar, currentVar, posVar string, body engine.Activity) engine.Activity {
	bind := engine.NewSnippet(name+"_bind", func(ctx *engine.Ctx) error {
		sv, err := ctx.Variable(setVar)
		if err != nil {
			return err
		}
		pos, err := ctx.Inst.MustVariable(posVar).Int()
		if err != nil {
			return err
		}
		var rows []*xdm.Node
		for _, c := range sv.Node().ChildElements() {
			if c.Name == rowset.RowElement {
				rows = append(rows, c)
			}
		}
		if pos < 1 || pos > int64(len(rows)) {
			// The product prefix ("bis:", "orasoa:") was the one
			// difference between the twins; faults are journaled, so the
			// reference uses the shared cursor's wording.
			return fmt.Errorf("rowset: cursor position %d out of range in %s", pos, setVar)
		}
		return ctx.SetNode(currentVar, rows[pos-1].Clone())
	})
	advance := engine.NewSnippet(name+"_advance", func(ctx *engine.Ctx) error {
		pos, err := ctx.Inst.MustVariable(posVar).Int()
		if err != nil {
			return err
		}
		return ctx.SetScalar(posVar, fmt.Sprint(pos+1))
	})
	cond := engine.Cond(fmt.Sprintf("$%s <= count($%s/Row)", posVar, setVar))
	return engine.NewSequence(name,
		engine.NewSnippet(name+"_init", func(ctx *engine.Ctx) error {
			return ctx.SetScalar(posVar, "1")
		}),
		engine.NewWhile(name+"_while", cond,
			engine.NewSequence(name+"_iteration", bind, body, advance)),
	)
}

type cursorBuilder func(name, setVar, currentVar, posVar string, body engine.Activity) engine.Activity

// cursorCase is one differential scenario: a set, and a loop body that
// may change the set, the set variable or the cursor position while the
// loop runs. Every body confirms the row it sees.
type cursorCase struct {
	name string
	set  string // initial set document; "" leaves the variable empty
	// step runs after the visit is confirmed; item is the bound row's
	// ItemID and n counts the steps so far (from 1).
	step func(ctx *engine.Ctx, item string, n int) error
}

func setDoc(items ...string) string {
	var b strings.Builder
	b.WriteString("<RowSet>")
	for i, it := range items {
		fmt.Fprintf(&b, `<Row num="%d"><ItemID>%s</ItemID><Quantity>%d</Quantity></Row>`, i+1, it, i+1)
	}
	b.WriteString("</RowSet>")
	return b.String()
}

var cursorCases = []cursorCase{
	{name: "plain", set: setDoc("a", "b", "c", "d")},
	{name: "empty-set", set: "<RowSet/>"},
	{name: "unset-variable", set: ""},
	{
		name: "insert-and-delete-mid-loop", set: setDoc("a", "b", "c", "d", "e"),
		step: func(ctx *engine.Ctx, item string, n int) error {
			switch item {
			case "b":
				if err := bis.InsertTuple(ctx, "SV", []string{"ItemID", "Quantity"}, []string{"x", "9"}); err != nil {
					return err
				}
				return bis.InsertTuple(ctx, "SV", []string{"ItemID", "Quantity"}, []string{"y", "8"})
			case "c":
				// Deleting an earlier row shifts every later row up one
				// position: the cursor then skips "d".
				return bis.DeleteTuple(ctx, "SV", 0)
			case "e":
				// A cell rewrite changes a row, not the set.
				sv, _ := ctx.Variable("SV")
				rowset.SetField(rowset.Row(sv.Node(), 4), "ItemID", "x2")
			}
			return nil
		},
	},
	{
		name: "replace-set-variable", set: setDoc("a", "b", "c", "d"),
		step: func(ctx *engine.Ctx, item string, n int) error {
			switch item {
			case "b":
				// Built the same way as the first set, the new document
				// has the same child-list generation: only its identity
				// tells the sets apart.
				return ctx.SetNode("SV", xdm.MustParse(setDoc("p", "q", "r", "s")))
			case "s":
				return ctx.SetNode("SV", xdm.MustParse(setDoc("u")))
			}
			return nil
		},
	},
	{
		name: "rewrite-position", set: setDoc("a", "b", "c", "d", "e", "f"),
		step: func(ctx *engine.Ctx, item string, n int) error {
			switch {
			case item == "b" && n == 2:
				return ctx.SetScalar("pos", "4") // skip ahead to e
			case item == "f" && n == 4:
				return ctx.SetScalar("pos", "0") // back to the start
			}
			return nil
		},
	},
	{
		name: "position-out-of-range", set: setDoc("a", "b"),
		step: func(ctx *engine.Ctx, item string, n int) error {
			return ctx.SetScalar("pos", "-1") // advances to 0: the bind faults
		},
	},
}

// cursorRun is everything an instance leaves behind: the confirmations it
// wrote, its journal records, and how it ended.
type cursorRun struct {
	confirmations []string
	journal       []string
	fault         bool
}

// runCursor deploys a process around build's cursor, runs that many
// instances of it at once and returns what each instance left behind.
func runCursor(t *testing.T, build cursorBuilder, c cursorCase, instances int) []cursorRun {
	t.Helper()
	db := sqldb.Open("cursor")
	db.MustExec("CREATE TABLE Confirmations (Inst INTEGER, Step INTEGER, ItemID VARCHAR, Quantity VARCHAR)")
	rec, err := journal.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rec.SetSyncPolicy(journal.SyncPolicy{Mode: journal.SyncNever})
	e := engine.New(wsbus.New())
	e.AttachJournal(rec)

	visit := engine.NewSnippet("visit", func(ctx *engine.Ctx) error {
		cur, err := ctx.Variable("Cur")
		if err != nil {
			return err
		}
		nv, err := ctx.Variable("n")
		if err != nil {
			return err
		}
		n, err := nv.Int()
		if err != nil {
			return err
		}
		n++
		if err := ctx.SetScalar("n", strconv.FormatInt(n, 10)); err != nil {
			return err
		}
		item := rowset.Field(cur.Node(), "ItemID")
		if _, err := db.Exec("INSERT INTO Confirmations VALUES (?, ?, ?, ?)",
			sqldb.Int(ctx.Inst.ID), sqldb.Int(n), sqldb.Str(item), sqldb.Str(rowset.Field(cur.Node(), "Quantity"))); err != nil {
			return err
		}
		if c.step == nil {
			return nil
		}
		return c.step(ctx, item, int(n))
	})
	d, err := e.Deploy(&engine.Process{
		Name: "cursor-" + c.name,
		Variables: []engine.VarDecl{
			{Name: "SV", Kind: engine.XMLVar, InitXML: c.set},
			{Name: "Cur", Kind: engine.XMLVar},
			{Name: "pos", Kind: engine.ScalarVar, Init: "1"},
			{Name: "n", Kind: engine.ScalarVar, Init: "0"},
		},
		Body: build("cursor", "SV", "Cur", "pos", visit),
	})
	if err != nil {
		t.Fatal(err)
	}

	ids := make([]int64, instances)
	faults := make([]bool, instances)
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			in, err := d.Run(nil)
			if in == nil {
				t.Errorf("instance %d did not start: %v", i, err)
				return
			}
			ids[i], faults[i] = in.ID, err != nil
		}(i)
	}
	wg.Wait()
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(rec.Path())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	scan, err := journal.Scan(f)
	if err != nil || scan.Torn {
		t.Fatalf("journal scan: err=%v torn=%v", err, scan.Torn)
	}
	records := map[int64][]string{}
	for _, r := range scan.Records {
		if r.Instance == 0 {
			continue
		}
		records[r.Instance] = append(records[r.Instance], fmt.Sprintf("%s %s #%d %s %v", r.Kind, r.Activity, r.Occurrence, r.EffectKind, r.Data))
	}

	out := make([]cursorRun, instances)
	for i, id := range ids {
		res := db.MustExec("SELECT Step, ItemID, Quantity FROM Confirmations WHERE Inst = ? ORDER BY Step", sqldb.Int(id))
		for _, row := range res.Rows {
			out[i].confirmations = append(out[i].confirmations, fmt.Sprintf("%d:%s:%s", row[0].I, row[1].S, row[2].S))
		}
		out[i].journal = records[id]
		out[i].fault = faults[i]
	}
	return out
}

// TestCursorMatchesReference checks, scenario by scenario, that the
// shared cursor visits the same rows, writes the same confirmations and
// journals the same records as the pre-snapshot reference.
func TestCursorMatchesReference(t *testing.T) {
	for _, c := range cursorCases {
		t.Run(c.name, func(t *testing.T) {
			want := runCursor(t, referenceCursor, c, 1)[0]
			got := runCursor(t, rowset.Cursor, c, 1)[0]
			compareRuns(t, got, want)
			if c.name == "position-out-of-range" && !want.fault {
				t.Error("reference should fault on an out-of-range position")
			}
		})
	}
}

// TestCursorConcurrentInstances runs 8 instances of one deployment at
// once (the activities are shared; each instance's snapshot is its own)
// and checks every one against the reference's single run.
func TestCursorConcurrentInstances(t *testing.T) {
	for _, c := range cursorCases {
		t.Run(c.name, func(t *testing.T) {
			want := runCursor(t, referenceCursor, c, 1)[0]
			for i, got := range runCursor(t, rowset.Cursor, c, 8) {
				t.Run(strconv.Itoa(i), func(t *testing.T) { compareRuns(t, got, want) })
			}
		})
	}
}

func compareRuns(t *testing.T, got, want cursorRun) {
	t.Helper()
	if got.fault != want.fault {
		t.Errorf("fault: got %v, want %v", got.fault, want.fault)
	}
	if !reflect.DeepEqual(got.confirmations, want.confirmations) {
		t.Errorf("confirmations:\n got %v\nwant %v", got.confirmations, want.confirmations)
	}
	if !reflect.DeepEqual(got.journal, want.journal) {
		t.Errorf("journal records differ:\n got %d: %v\nwant %d: %v", len(got.journal), got.journal, len(want.journal), want.journal)
	}
	if len(want.confirmations) == 0 && len(want.journal) == 0 {
		t.Error("the run left no trace to compare")
	}
}
