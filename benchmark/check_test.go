package main

import (
	"testing"
	"time"

	"wfsql"
)

// TestCheckResultRejectsWrongConfirmations runs a few instances on each
// stack, checks that the result is accepted, then tampers with the
// confirmations one way at a time and checks that each is rejected.
func TestCheckResultRejectsWrongConfirmations(t *testing.T) {
	wl := workload{
		name: "test", data: wfsql.Workload{Orders: 60, Items: 4, ApprovalPercent: 80, Seed: 3},
		workers: 1, warmup: 2,
	}
	for _, tamper := range []string{
		"UPDATE OrderConfirmations SET Quantity = Quantity + 1 WHERE ItemID = 'item001'",
		"DELETE FROM OrderConfirmations WHERE ItemID = 'item002'",
		"INSERT INTO OrderConfirmations (ItemID, Quantity, Confirmation) VALUES ('item009', 1, 'CONFIRMED:item009:1')",
	} {
		for _, st := range stacks {
			h, _, err := ready(st, wl, t.TempDir(), nil)
			if err != nil {
				t.Fatalf("%s: %v", st.name, err)
			}
			if l := h.drive(wl.workers, 3, time.Now().Add(10*time.Second)); l.failed > 0 {
				t.Fatalf("%s: %d instances failed: %v", st.name, l.failed, l.firstErr)
			}
			if err := checkResult(st, h); err != nil {
				t.Fatalf("%s: correct result rejected: %v", st.name, err)
			}
			h.env.DB.MustExec(tamper)
			if err := checkResult(st, h); err == nil {
				t.Errorf("%s: accepted confirmations after %q", st.name, tamper)
			}
		}
	}
}
