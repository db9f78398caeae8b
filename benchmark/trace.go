package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime/pprof"
	"sync/atomic"
	"time"

	"wfsql/internal/obsv"
	"wfsql/internal/sqldb"
	"wfsql/internal/wsbus"
)

// This file is the traced run: the same closed loop on a fresh
// environment, with hooks at the layer boundaries the benchmark can reach
// from outside (the sqldb statement sink, the supplier service, the
// journal's metrics bundle) and a CPU profile attributed per layer.

// tracer accumulates what the hooks see. The hooks run on instance
// goroutines, so every field is atomic.
type tracer struct {
	stmts, stmtErrs               atomic.Int64
	parseNs, execNs, lockNs       atomic.Int64
	rowsScanned, rowsReturned     atomic.Int64
	supplierCalls, supplierCallNs atomic.Int64
}

func (t *tracer) reset() { *t = tracer{} }

func (t *tracer) stmt(s sqldb.StmtStats) {
	t.stmts.Add(1)
	if s.Err != "" {
		t.stmtErrs.Add(1)
	}
	t.parseNs.Add(int64(s.Parse))
	t.execNs.Add(int64(s.Exec))
	t.lockNs.Add(int64(s.LockWait))
	t.rowsScanned.Add(s.RowsScanned)
	t.rowsReturned.Add(s.RowsReturned)
}

func (t *tracer) timeCall(start time.Time) {
	t.supplierCalls.Add(1)
	t.supplierCallNs.Add(int64(time.Since(start)))
}

// install hooks the harness's environment: every statement reports to
// the tracer, and the supplier is timed on both paths that reach it, the
// bus (BIS, Oracle) and the WF runtime's service registry.
func (t *tracer) install(h *harness) error {
	env := h.env
	env.DB.SetStatsSink(t.stmt)
	supplier := env.Supplier
	env.Runtime.RegisterService("OrderFromSupplier", func(req map[string]string) (map[string]string, error) {
		defer t.timeCall(time.Now())
		return supplier.Handle(req)
	})
	return env.Bus.Decorate("OrderFromSupplier", func(next wsbus.Handler) wsbus.Handler {
		return func(req wsbus.Message) (wsbus.Message, error) {
			defer t.timeCall(time.Now())
			return next(req)
		}
	})
}

type layerMetric struct {
	name  string
	value float64
	unit  string
}

// tracedRun is the traced measurement of one stack.
type tracedRun struct {
	fixedRun
	layers []layerMetric
}

// measureTraced runs the workload's fixed count of traced instances on a
// fresh, warmed-up environment with the hooks installed and a CPU profile
// running. limit bounds the closed loop.
func measureTraced(st stack, wl workload, dir string, limit time.Duration) (*tracedRun, error) {
	t := &tracer{}
	var hookErr error
	h, _, err := ready(st, wl, dir, func(h *harness) { hookErr = t.install(h) })
	if err != nil {
		return nil, err
	}
	defer h.close()
	if hookErr != nil {
		return nil, fmt.Errorf("%s: install hooks: %w", st.name, hookErr)
	}

	t.reset()
	cache0 := h.env.DB.StmtCacheStats()
	walObs := obsv.New()
	var syncs0, wal0 int64
	if h.rec != nil {
		h.rec.SetObservability(walObs)
		syncs0 = h.rec.SyncCount()
		if wal0, err = fileSize(h.rec.Path()); err != nil {
			return nil, err
		}
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	l := h.drive(wl.workers, wl.traced, time.Now().Add(limit))
	pprof.StopCPUProfile()
	// Detach the sink before anything else reads the database, so the
	// checks' own statements are not counted.
	h.env.DB.SetStatsSink(nil)
	cache1 := h.env.DB.StmtCacheStats()
	r := &tracedRun{fixedRun: fixedRun{load: l}}

	n := float64(max(len(l.lat), 1))
	perInst := func(ns int64) float64 { return float64(ns) / 1e3 / n }
	hits, misses := cache1.Hits-cache0.Hits, cache1.Misses-cache0.Misses
	var span time.Duration
	for _, d := range l.lat {
		span += d
	}
	var syncs, walBytes, syncUs, appendUs float64
	if h.rec != nil {
		wal1, err := fileSize(h.rec.Path())
		if err != nil {
			return nil, err
		}
		syncs = float64(h.rec.SyncCount()-syncs0) / n
		walBytes = float64(wal1-wal0) / n
		// The recorder's histograms observe milliseconds. Append time
		// includes the fsync and the wait for the recorder's lock.
		syncUs = walObs.M().Histogram("journal.sync_ms").Summary().Sum * 1e3 / n
		appendUs = walObs.M().Histogram("journal.append_ms").Summary().Sum * 1e3 / n
	}
	// Self time is the instance span minus the time its children took:
	// statements, supplier calls and journal appends.
	sqlNs := t.parseNs.Load() + t.execNs.Load() + t.lockNs.Load()
	self := perInst(int64(span)-sqlNs-t.supplierCallNs.Load()) - appendUs
	if self < 0 {
		return nil, fmt.Errorf("%s: negative %s self time %.1f us per instance", st.name, st.self, self)
	}
	r.layers = []layerMetric{
		{"sqldb.stmts_per_inst", float64(t.stmts.Load()) / n, "count"},
		{"sqldb.parse_us_per_inst", perInst(t.parseNs.Load()), "us"},
		{"sqldb.exec_us_per_inst", perInst(t.execNs.Load()), "us"},
		{"sqldb.lock_wait_us_per_inst", perInst(t.lockNs.Load()), "us"},
		{"sqldb.plan_hit_ratio", ratio(hits, hits+misses), "share"},
		{"sqldb.rows_scanned_per_returned", ratio(t.rowsScanned.Load(), t.rowsReturned.Load()), "ratio"},
		{"sqldb.stmt_errors", float64(t.stmtErrs.Load()), "count"},
		{"wsbus.calls_per_inst", float64(t.supplierCalls.Load()) / n, "count"},
		{"wsbus.us_per_inst", perInst(t.supplierCallNs.Load()), "us"},
		{st.self + ".self_us_per_inst", self, "us"},
		{st.self + ".self_us_per_row", self / float64(max(len(h.totals), 1)), "us"},
	}

	p, err := decodeProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	shares := p.attribute()
	sum := 0.0
	for _, b := range cpuBuckets {
		r.layers = append(r.layers, layerMetric{"cpu." + b, shares[b], "share"})
		sum += shares[b]
	}
	if len(p.samples) > 0 && math.Abs(sum-1) > 1e-9 {
		return nil, fmt.Errorf("%s: CPU shares sum to %v", st.name, sum)
	}

	r.layers = append(r.layers,
		layerMetric{"journal.syncs_per_inst", syncs, "count"},
		layerMetric{"journal.bytes_per_inst", walBytes, "B"},
		layerMetric{"journal.sync_us_per_inst", syncUs, "us"},
		layerMetric{"journal.append_us_per_inst", appendUs, "us"},
	)

	if r.checkErr, err = h.done(st); err != nil {
		return nil, err
	}
	return r, nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func fileSize(path string) (int64, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}
