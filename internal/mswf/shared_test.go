package mswf

import (
	"sync"
	"testing"

	"wfsql/internal/wsbus"
)

// TestFigure6SharedTreeConcurrentInstances runs two Figure 6 instances at
// once on one activity tree whose invoke resolves its service by name.
// Activities are shared configuration: running an instance must not
// write into them (under -race a lazy write shows as a data race; without
// it, the Service field check below catches it).
func TestFigure6SharedTreeConcurrentInstances(t *testing.T) {
	db := ordersDB()
	rt := newRuntime(db)
	svc := wsbus.NewOrderFromSupplier(0)
	rt.RegisterService("OrderFromSupplier", func(req map[string]string) (map[string]string, error) { return svc.Handle(req) })

	tree := figure6Workflow(svc)
	invoke := tree.(*SequenceActivity).Children[1].(*WhileActivity).Body.(*SequenceActivity).Children[1].(*InvokeWebServiceActivity)
	invoke.Service = nil
	invoke.ServiceName = "OrderFromSupplier"

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = rt.Run(tree, map[string]any{"Index": 0})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
	}
	if invoke.Service != nil {
		t.Error("running an instance bound a service into the shared activity")
	}
	r := db.MustExec("SELECT ItemID, COUNT(*) FROM OrderConfirmations GROUP BY ItemID ORDER BY ItemID")
	if len(r.Rows) != 3 {
		t.Fatalf("confirmed item types: %d, want 3", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row[1].I != 2 {
			t.Errorf("%s confirmed %d times, want 2", row[0].S, row[1].I)
		}
	}
}
