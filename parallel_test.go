package searchspace

import (
	"bytes"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// parityProblem mixes value kinds, a heavily constrained prefix, and a
// Go-func constraint, so the parity sweep exercises every construction
// backend's parallel and sequential paths on non-trivial input.
func parityProblem() *Problem {
	p := NewProblem("parity")
	p.AddParam("block_size_x", 1, 2, 4, 8, 16, 32)
	p.AddParam("block_size_y", 1, 2, 4, 8)
	p.AddParam("scale", 0.5, 1.0, 2.0)
	p.AddParam("vectorize", true, false)
	p.AddParam("tile", 1, 2, 3, 4, 5)
	p.AddConstraint("8 <= block_size_x * block_size_y <= 128")
	p.AddConstraint("tile <= block_size_x")
	p.AddConstraint("vectorize or block_size_x >= 4")
	return p
}

// columnsEqual compares two resolved spaces cell for cell — the
// byte-identical determinism contract, stronger than size agreement.
func columnsEqual(t *testing.T, label string, want, got *SearchSpace) {
	t.Helper()
	if got.Size() != want.Size() {
		t.Fatalf("%s: size %d, want %d", label, got.Size(), want.Size())
	}
	wc, gc := want.Columns(), got.Columns()
	if len(wc) != len(gc) {
		t.Fatalf("%s: %d columns, want %d", label, len(gc), len(wc))
	}
	for p := range wc {
		for r := range wc[p] {
			if gc[p][r] != wc[p][r] {
				t.Fatalf("%s: column %d row %d: got %d want %d (parallel output must be byte-identical)",
					label, p, r, gc[p][r], wc[p][r])
			}
		}
	}
}

// TestBuildWithParityEveryMethod pins the determinism contract across
// the whole method matrix: for every construction method and for
// worker counts beyond any single domain's size (and 0, which selects
// GOMAXPROCS), BuildWith produces output byte-identical to the
// sequential build, with stats that name the method and the row count.
func TestBuildWithParityEveryMethod(t *testing.T) {
	for _, m := range Methods() {
		seq, seqStats, err := parityProblem().BuildWith(BuildOpts{Method: m, Workers: 1})
		if err != nil {
			t.Fatalf("%v sequential: %v", m, err)
		}
		if seqStats.Workers != 1 {
			t.Errorf("%v sequential: stats report %d workers, want 1", m, seqStats.Workers)
		}
		for _, workers := range []int{0, 2, 7} {
			par, stats, err := parityProblem().BuildWith(BuildOpts{Method: m, Workers: workers})
			if err != nil {
				t.Fatalf("%v workers=%d: %v", m, workers, err)
			}
			columnsEqual(t, m.String(), seq, par)
			if stats.Method != m || stats.Valid != par.Size() {
				t.Errorf("%v workers=%d: stats %+v", m, workers, stats)
			}
			switch m {
			case Optimized, ChainOfTrees, ChainOfTreesInterpreted:
				if workers > 0 && stats.Workers != workers {
					t.Errorf("%v workers=%d: stats report %d workers", m, workers, stats.Workers)
				}
			default:
				if stats.Workers != 1 {
					t.Errorf("%v has no parallel backend but stats report %d workers", m, stats.Workers)
				}
			}
		}
	}
}

// TestBuildWithCancelNoLeak injects cancellation mid-build for the
// parallel-capable methods and requires ErrCanceled with all worker
// goroutines drained afterwards. A stop that has already fired cancels
// before any work starts, sequential or parallel.
func TestBuildWithCancelNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	alwaysStop := func() bool { return true }
	for _, workers := range []int{1, 4} {
		if _, _, err := parityProblem().BuildWith(BuildOpts{Method: Optimized, Workers: workers, Stop: alwaysStop}); !errors.Is(err, ErrCanceled) {
			t.Errorf("workers=%d with pre-fired stop: %v, want ErrCanceled", workers, err)
		}
	}
	for _, m := range []Method{Optimized, ChainOfTrees, ChainOfTreesInterpreted} {
		var polls atomic.Int64
		_, _, err := parityProblem().BuildWith(BuildOpts{
			Method:  m,
			Workers: 7,
			Stop:    func() bool { return polls.Add(1) > 4 },
		})
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("%v: got %v, want ErrCanceled", m, err)
		}
	}
	// The engine joins its workers before returning, so the goroutine
	// count must settle back; poll briefly to absorb runtime noise.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before cancellations, %d after", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestBuildWithProgress sanity-checks the OnProgress plumbing from the
// public API down to the scheduler.
func TestBuildWithProgress(t *testing.T) {
	var done, total atomic.Int64
	_, _, err := parityProblem().BuildWith(BuildOpts{
		Method:  Optimized,
		Workers: 4,
		OnProgress: func(d, tot int) {
			done.Store(int64(d))
			total.Store(int64(tot))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if total.Load() <= 1 {
		t.Fatalf("expected a real prefix split, got %d tasks", total.Load())
	}
}

// TestColumnsChecksumStable guards the byte-identity claim end to end:
// serializing the columns of a sequential and a parallel build gives
// the same bytes.
func TestColumnsChecksumStable(t *testing.T) {
	enc := func(ss *SearchSpace) []byte {
		var buf bytes.Buffer
		for _, col := range ss.Columns() {
			for _, di := range col {
				buf.WriteByte(byte(di))
				buf.WriteByte(byte(di >> 8))
				buf.WriteByte(byte(di >> 16))
				buf.WriteByte(byte(di >> 24))
			}
		}
		return buf.Bytes()
	}
	seq, err := parityProblem().Build(Optimized)
	if err != nil {
		t.Fatal(err)
	}
	par, _, err := parityProblem().BuildWith(BuildOpts{Method: Optimized, Workers: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc(seq), enc(par)) {
		t.Fatal("sequential and parallel column bytes differ")
	}
}
