package main

import (
	"fmt"
	"sort"
	"strings"
)

// settle checks the business result of the instances run since the last
// settle and then deletes their confirmations, so that measured instances
// start from an empty OrderConfirmations table.
func (h *harness) settle(st stack) error {
	if err := checkResult(st, h); err != nil {
		return err
	}
	if _, err := h.env.DB.Exec("DELETE FROM OrderConfirmations"); err != nil {
		return fmt.Errorf("%s: clear confirmations: %w", st.name, err)
	}
	h.settled = h.runs
	return nil
}

// checkResult compares the business result with what the orders imply.
// Each instance confirms every item type with approved orders exactly
// once, with the summed approved quantity. So OrderConfirmations must
// hold, per item, one row for each instance run since the last settle,
// with quantities summing to that count × the total, each confirmed for
// that total. The supplier's ledger must hold every instance ever run ×
// the total. The expected totals and the confirmation groups are
// aggregated here from plain row reads, not with the SQL aggregate the
// instances themselves run.
func checkResult(st stack, h *harness) error {
	if h.totals == nil {
		var err error
		if h.totals, err = approvedTotals(h); err != nil {
			return fmt.Errorf("%s: %w", st.name, err)
		}
	}
	want := h.totals
	res, err := h.env.DB.Exec("SELECT ItemID, Quantity, Confirmation FROM OrderConfirmations")
	if err != nil {
		return fmt.Errorf("%s: read confirmations: %w", st.name, err)
	}
	type group struct{ rows, qty int64 }
	got := map[string]*group{}
	var bad []string
	for _, r := range res.Rows {
		item, conf := r[0].S, r[2].S
		qty, _ := r[1].AsInt()
		g := got[item]
		if g == nil {
			g = &group{}
			got[item] = g
		}
		g.rows++
		g.qty += qty
		if wantConf := fmt.Sprintf("CONFIRMED:%s:%d", item, want[item]); conf != wantConf && len(bad) < 3 {
			bad = append(bad, fmt.Sprintf("%s confirmed %q, want %q", item, conf, wantConf))
		}
	}
	runs, total := int64(h.runs-h.settled), int64(h.runs)
	items := make([]string, 0, len(want)+len(got))
	for item := range want {
		items = append(items, item)
	}
	for item := range got {
		if _, ok := want[item]; !ok {
			items = append(items, item)
		}
	}
	sort.Strings(items)
	for _, item := range items {
		g := got[item]
		if g == nil {
			g = &group{}
		}
		if g.rows != runs || g.qty != runs*want[item] {
			bad = append(bad, fmt.Sprintf("%s: %d rows summing to %d, want %d rows summing to %d",
				item, g.rows, g.qty, runs, runs*want[item]))
		}
		if n := h.env.Supplier.Ordered(item); n != total*want[item] {
			bad = append(bad, fmt.Sprintf("%s: supplier ledger %d, want %d", item, n, total*want[item]))
		}
	}
	if len(want) == 0 {
		bad = append(bad, "no approved orders: the workload confirms nothing")
	}
	if len(bad) > 0 {
		return fmt.Errorf("%s: business result after %d instances: %s", st.name, total, strings.Join(bad, "; "))
	}
	return nil
}

// approvedTotals sums the approved quantity per item type from the
// Orders rows.
func approvedTotals(h *harness) (map[string]int64, error) {
	res, err := h.env.DB.Exec("SELECT ItemID, Quantity, Approved FROM Orders")
	if err != nil {
		return nil, fmt.Errorf("read orders: %w", err)
	}
	want := map[string]int64{}
	for _, r := range res.Rows {
		if r[2].Truth() {
			q, _ := r[1].AsInt()
			want[r[0].S] += q
		}
	}
	return want, nil
}
