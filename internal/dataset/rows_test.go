package dataset

import (
	"math/rand"
	"testing"

	"wfsql/internal/sqldb"
)

// checkLiveRows compares Count and Row against the live rows recomputed
// from every tracked row.
func checkLiveRows(t *testing.T, tb *DataTable, when string) {
	t.Helper()
	var live []*DataRow
	for _, r := range tb.AllRows() {
		if r.State() != Deleted {
			live = append(live, r)
		}
	}
	if tb.Count() != len(live) {
		t.Fatalf("%s: Count() = %d, want %d", when, tb.Count(), len(live))
	}
	for i, want := range live {
		got, err := tb.Row(i)
		if err != nil || got != want {
			t.Fatalf("%s: Row(%d) = %p, %v; want %p", when, i, got, err, want)
		}
	}
	for _, i := range []int{-1, len(live)} {
		if r, err := tb.Row(i); err == nil {
			t.Fatalf("%s: Row(%d) = %p, want out-of-range error", when, i, r)
		}
	}
}

// TestRowAndCountWithDeletedRows drives a table through random mixes of
// loads, adds, edits, deletes, per-row accepts, AcceptChanges and
// RejectChanges, checking the O(1) live-row count and the direct Row
// index against a recount after every step.
func TestRowAndCountWithDeletedRows(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		tb := NewDataTable("T", "k", "v")
		for i := rng.Intn(6); i > 0; i-- {
			tb.loadRow([]sqldb.Value{sqldb.Int(int64(i)), sqldb.Str("x")})
		}
		checkLiveRows(t, tb, "after load")
		for op := 0; op < 40; op++ {
			all := tb.AllRows()
			var pick *DataRow
			if len(all) > 0 {
				pick = all[rng.Intn(len(all))]
			}
			var name string
			switch n := rng.Intn(10); {
			case n < 3:
				name = "AddRow"
				if _, err := tb.AddRow(sqldb.Int(int64(op)), sqldb.Str("new")); err != nil {
					t.Fatal(err)
				}
			case n < 6 && pick != nil:
				name = "Delete " + pick.State().String()
				pick.Delete()
			case n == 6 && pick != nil:
				name = "Set " + pick.State().String()
				_ = pick.Set("v", sqldb.Str("edited"))
			case n == 7 && pick != nil:
				name = "AcceptRow " + pick.State().String()
				pick.AcceptRow()
			case n == 8:
				name = "AcceptChanges"
				tb.AcceptChanges()
			default:
				name = "RejectChanges"
				tb.RejectChanges()
			}
			checkLiveRows(t, tb, name)
		}
	}
}
