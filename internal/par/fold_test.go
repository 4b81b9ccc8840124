package par

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestFoldOrdered: the fold must see every index exactly once, strictly
// ascending, at any worker count — the property checkpoint journals and
// streaming aggregates are built on.
func TestFoldOrdered(t *testing.T) {
	const n = 500
	for _, workers := range []int{1, 2, 3, 8, 32} {
		want := 0
		sum := 0
		err := Fold(context.Background(), workers, 0, n,
			func(_ context.Context, i int) (int, error) {
				runtime.Gosched() // shake completion order
				return 3 * i, nil
			},
			func(i, r int) error {
				if i != want {
					t.Fatalf("workers=%d: fold saw index %d, want %d", workers, i, want)
				}
				if r != 3*i {
					t.Fatalf("workers=%d: fold saw result %d for index %d", workers, r, i)
				}
				want++
				sum += r
				return nil
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if want != n || sum != 3*n*(n-1)/2 {
			t.Fatalf("workers=%d: folded %d of %d (sum %d)", workers, want, n, sum)
		}
	}
}

// TestFoldStart: resume semantics — folding [start, n) touches exactly the
// tail, so a journal replay can hand the engine its first unwritten index.
func TestFoldStart(t *testing.T) {
	for _, workers := range []int{1, 4} {
		want := 100
		err := Fold(context.Background(), workers, 100, 150,
			func(_ context.Context, i int) (int, error) { return i, nil },
			func(i, r int) error {
				if i != want {
					t.Fatalf("workers=%d: fold saw %d, want %d", workers, i, want)
				}
				want++
				return nil
			})
		if err != nil || want != 150 {
			t.Fatalf("workers=%d: folded up to %d, err %v", workers, want, err)
		}
	}
}

// TestFoldEmpty: an already-complete range folds nothing and succeeds.
func TestFoldEmpty(t *testing.T) {
	err := Fold(context.Background(), 4, 10, 10,
		func(_ context.Context, i int) (int, error) { t.Fatal("compute called"); return 0, nil },
		func(i, r int) error { t.Fatal("fold called"); return nil })
	if err != nil {
		t.Fatal(err)
	}
}

// TestFoldComputeError: a failing compute surfaces its own error (not a
// cancellation echo) and the fold stops on a contiguous prefix strictly
// before the failed index — the journal is left valid.
func TestFoldComputeError(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 2, 8} {
		last := -1
		err := Fold(context.Background(), workers, 0, 200,
			func(_ context.Context, i int) (int, error) {
				if i == 37 {
					return 0, boom
				}
				return i, nil
			},
			func(i, r int) error {
				if i != last+1 {
					t.Fatalf("workers=%d: non-contiguous fold at %d after %d", workers, i, last)
				}
				last = i
				return nil
			})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: got %v, want boom", workers, err)
		}
		if last >= 37 {
			t.Fatalf("workers=%d: folded index %d past the failure", workers, last)
		}
	}
}

// TestFoldFoldError: the fold's own error is a graceful early stop — it
// comes back verbatim and no further fold calls happen.
func TestFoldFoldError(t *testing.T) {
	stop := errors.New("enough")
	for _, workers := range []int{1, 6} {
		calls := 0
		err := Fold(context.Background(), workers, 0, 1000,
			func(_ context.Context, i int) (int, error) { return i, nil },
			func(i, r int) error {
				calls++
				if i == 25 {
					return stop
				}
				return nil
			})
		if !errors.Is(err, stop) {
			t.Fatalf("workers=%d: got %v, want stop", workers, err)
		}
		if calls != 26 {
			t.Fatalf("workers=%d: %d fold calls, want 26", workers, calls)
		}
	}
}

// TestFoldCancel: parent-context cancellation aborts with ctx.Err().
func TestFoldCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := Fold(ctx, 4, 0, 100,
		func(ctx context.Context, i int) (int, error) { return i, ctx.Err() },
		func(i, r int) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestFoldNoFoldAfterCancel: with a slow fold and fast computes, cancelling
// the parent context inside fold call k stops the fold right there — the
// parallel path honours cancellation before every fold call, as the serial
// path does before every index — and the call returns ctx.Err().
func TestFoldNoFoldAfterCancel(t *testing.T) {
	const n, cut = 64, 10
	for _, workers := range []int{1, 2, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		folds := 0
		err := Fold(ctx, workers, 0, n,
			func(_ context.Context, i int) (int, error) { return i, nil },
			func(i, r int) error {
				folds++
				time.Sleep(2 * time.Millisecond) // an fsync-bound journal append
				if folds == cut {
					cancel()
				}
				return nil
			})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: got %v, want context.Canceled", workers, err)
		}
		if folds != cut {
			t.Fatalf("workers=%d: %d fold calls, want %d (none after cancellation)", workers, folds, cut)
		}
	}
}

// TestFoldLookAheadBounded: a slow fold must not let fast workers run to
// the end of the range — no index is computed more than 2*workers ahead of
// the fold.
func TestFoldLookAheadBounded(t *testing.T) {
	const n = 200
	for _, workers := range []int{2, 3, 8} {
		var folded, worst atomic.Int64
		err := Fold(context.Background(), workers, 0, n,
			func(_ context.Context, i int) (int, error) {
				ahead := int64(i) - folded.Load()
				for {
					w := worst.Load()
					if ahead <= w || worst.CompareAndSwap(w, ahead) {
						break
					}
				}
				return i, nil
			},
			func(i, r int) error {
				time.Sleep(200 * time.Microsecond)
				folded.Add(1)
				return nil
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := worst.Load(); got >= int64(2*workers) {
			t.Fatalf("workers=%d: computed index %d ahead of the fold, bound %d", workers, got, 2*workers)
		}
	}
}
