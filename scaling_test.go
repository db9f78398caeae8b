package wfsql

import (
	"runtime"
	"testing"
)

// TestSetAccessScalesLinearly is a timing-free guard on the cost of
// Sequential Set Access: every stack's cursor step must cost the same
// whatever the set size. It measures bytes allocated per instance of the
// running example with 100 and with 400 approved item types; linear
// per-row cost keeps the 400/100 ratio near 4 (the SQL aggregation and
// every loop step grow with the set), while a step that re-walks the set
// makes it grow with the square.
func TestSetAccessScalesLinearly(t *testing.T) {
	const maxRatio = 4.8
	stacks := []struct {
		name string
		run  func(env *Environment) error
	}{
		{"BIS", (*Environment).RunFigure4BIS},
		{"WF", (*Environment).RunFigure6WF},
		{"Oracle", (*Environment).RunFigure8Oracle},
	}
	for _, st := range stacks {
		t.Run(st.name, func(t *testing.T) {
			small := bytesPerInstance(t, 100, st.run)
			large := bytesPerInstance(t, 400, st.run)
			ratio := float64(large) / float64(small)
			t.Logf("bytes/instance: 100 items %d, 400 items %d, ratio %.2f", small, large, ratio)
			if ratio > maxRatio {
				t.Errorf("400/100 bytes-per-instance ratio %.2f exceeds %.1f: set access is superlinear", ratio, maxRatio)
			}
		})
	}
}

// bytesPerInstance runs the example on a fresh environment whose orders
// are all approved and cover items item types, and returns the bytes
// allocated per instance after warm-up.
func bytesPerInstance(t *testing.T, items int, run func(*Environment) error) uint64 {
	t.Helper()
	const warmup, measured = 2, 6
	env := NewEnvironment(Workload{Orders: 20 * items, Items: items, ApprovalPercent: 100, Seed: 1})
	if n := len(env.DB.MustExec("SELECT DISTINCT ItemID FROM Orders").Rows); n != items {
		t.Fatalf("workload covers %d item types, want %d", n, items)
	}
	for i := 0; i < warmup; i++ {
		if err := run(env); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < measured; i++ {
		if err := run(env); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if n := len(env.DB.MustExec("SELECT ItemID FROM OrderConfirmations").Rows); n != (warmup+measured)*items {
		t.Fatalf("%d confirmations, want %d", n, (warmup+measured)*items)
	}
	return (after.TotalAlloc - before.TotalAlloc) / measured
}
