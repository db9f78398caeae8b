package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"

	"wfsql"
	"wfsql/internal/sqldb"
)

func TestBucketOf(t *testing.T) {
	for fn, want := range map[string]string{
		"wfsql/internal/sqldb.(*Session).execStmt":      "sqldb",
		"wfsql/internal/xpath.(*Expr).Eval.func1":       "xpath",
		"wfsql/internal/obsv.(*Histogram).Observe":      "other",
		"wfsql.(*Environment).BuildFigure6WFResilient":  "",
		"runtime.mallocgc":                              "",
		"main.(*harness).drive.func1":                   "",
		"wfsql/internal/journal.(*Recorder).syncLocked": "journal",
	} {
		if got := bucketOf(fn); got != want {
			t.Errorf("bucketOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestProfileFindsHotLoop profiles a loop that spends its time in sqldb
// aggregating a table and checks that the decoder charges the CPU to the
// sqldb bucket.
func TestProfileFindsHotLoop(t *testing.T) {
	db := sqldb.Open("hot")
	db.MustExec("CREATE TABLE T (K VARCHAR, V INTEGER)")
	s := db.Session()
	ins, err := s.Prepare("INSERT INTO T (K, V) VALUES (?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		if _, err := ins.Exec(sqldb.Str(string(rune('a'+i%7))), sqldb.Int(int64(i))); err != nil {
			t.Fatal(err)
		}
	}

	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler unavailable: %v", err)
	}
	for end := time.Now().Add(time.Second); time.Now().Before(end); {
		db.MustExec("SELECT K, SUM(V) FROM T GROUP BY K ORDER BY K")
	}
	pprof.StopCPUProfile()

	p, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.samples) < 20 {
		t.Fatalf("only %d samples in a one-second CPU-bound profile", len(p.samples))
	}
	shares := p.attribute()
	checkShares(t, shares)
	for _, b := range cpuBuckets {
		if b != "sqldb" && b != "unattributed" && shares[b] >= shares["sqldb"] {
			t.Errorf("bucket %s (%.3f) >= sqldb (%.3f)", b, shares[b], shares["sqldb"])
		}
	}
	if shares["sqldb"] < 0.3 {
		t.Errorf("sqldb share %.3f, want at least 0.3 for a loop that only runs queries", shares["sqldb"])
	}
}

// TestTracedRunLayers runs a small traced measurement of every stack
// and checks the attribution invariants the benchmark relies on.
func TestTracedRunLayers(t *testing.T) {
	wl := workload{
		name: "test", data: wfsql.Workload{Orders: 60, Items: 4, ApprovalPercent: 80, Seed: 7},
		workers: 2, journal: true, warmup: 5, traced: 200,
	}
	for _, st := range stacks {
		tr, err := measureTraced(st, wl, t.TempDir(), 10*time.Second)
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		if tr.checkErr != nil || tr.failed > 0 {
			t.Fatalf("%s: failed=%d check=%v", st.name, tr.failed, tr.checkErr)
		}
		shares := map[string]float64{}
		for _, m := range tr.layers {
			if m.value < 0 {
				t.Errorf("%s: %s = %v, want >= 0", st.name, m.name, m.value)
			}
			if len(m.name) > 4 && m.name[:4] == "cpu." {
				shares[m.name[4:]] = m.value
			}
		}
		checkShares(t, shares)
	}
}

func checkShares(t *testing.T, shares map[string]float64) {
	t.Helper()
	sum := 0.0
	for _, b := range cpuBuckets {
		sum += shares[b]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("CPU shares sum to %v, want 1", sum)
	}
}
