package wsbus

import (
	"fmt"
	"strconv"
	"sync"
)

// OrderFromSupplierService is the paper's sample Web service: it takes an
// item type and a required quantity, "orders" the items from a supplier,
// and returns a confirmation string indicating success. Orders above the
// configured capacity are rejected, exercising the failure path.
type OrderFromSupplierService struct {
	mu       sync.Mutex
	Capacity int64 // per-call quantity limit; 0 means unlimited
	ordered  map[string]int64
}

// NewOrderFromSupplier creates the sample supplier service.
func NewOrderFromSupplier(capacity int64) *OrderFromSupplierService {
	return &OrderFromSupplierService{Capacity: capacity, ordered: map[string]int64{}}
}

// Handle implements the service operation. Request parts: ItemID,
// Quantity. Response part: OrderConfirmation.
func (s *OrderFromSupplierService) Handle(req Message) (Message, error) {
	item := req["ItemID"]
	if item == "" {
		return nil, fmt.Errorf("OrderFromSupplier: missing ItemID")
	}
	qty, err := strconv.ParseInt(req["Quantity"], 10, 64)
	if err != nil || qty <= 0 {
		return nil, fmt.Errorf("OrderFromSupplier: bad Quantity %q", req["Quantity"])
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.Capacity > 0 && qty > s.Capacity {
		return Message{"OrderConfirmation": "REJECTED:" + item + ":" + strconv.FormatInt(qty, 10)}, nil
	}
	s.ordered[item] += qty
	return Message{"OrderConfirmation": "CONFIRMED:" + item + ":" + strconv.FormatInt(qty, 10)}, nil
}

// Ordered returns the total quantity ordered for an item so far.
func (s *OrderFromSupplierService) Ordered(item string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ordered[item]
}
