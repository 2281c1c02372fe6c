package runner

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"vbr/internal/errs"
)

func TestRunAllSucceed(t *testing.T) {
	rs := Run(context.Background(), 8, Options{Workers: 3}, func(_ context.Context, i int) (int, error) {
		return i * i, nil
	})
	if len(rs) != 8 {
		t.Fatalf("got %d results, want 8", len(rs))
	}
	for i, r := range rs {
		if r.Err != nil {
			t.Errorf("item %d: unexpected error %v", i, r.Err)
		}
		if r.Index != i || r.Value != i*i {
			t.Errorf("item %d: got (idx=%d, val=%d)", i, r.Index, r.Value)
		}
	}
}

// TestRunPanicAndErrorSurvivors is the failure-injection test: one
// worker panics, one returns an error, and the surviving items must
// still produce an averaged result while both failures are reported.
func TestRunPanicAndErrorSurvivors(t *testing.T) {
	boom := errors.New("deliberate failure")
	rs := Run(context.Background(), 6, Options{
		Workers: 4,
		Label:   func(i int) string { return fmt.Sprintf("combo-%d", i) },
	}, func(_ context.Context, i int) (float64, error) {
		switch i {
		case 2:
			panic("injected panic in combo 2")
		case 4:
			return 0, boom
		}
		return float64(10 * (i + 1)), nil
	})

	ok, failed := Split(rs)
	if len(ok) != 4 || len(failed) != 2 {
		t.Fatalf("got %d survivors, %d failures; want 4 and 2", len(ok), len(failed))
	}

	// Average over the survivors, the Mux.AverageLossCtx degradation mode.
	var sum float64
	for _, r := range ok {
		sum += r.Value
	}
	avg := sum / float64(len(ok))
	want := (10.0 + 20 + 40 + 60) / 4
	if avg != want {
		t.Errorf("survivor average = %v, want %v", avg, want)
	}

	var pe *PanicError
	if !errors.As(failed[0].Err, &pe) {
		t.Fatalf("combo 2 failure is %T, want *PanicError", failed[0].Err)
	}
	if !strings.Contains(pe.Error(), "injected panic") {
		t.Errorf("panic error missing message: %v", pe)
	}
	if len(pe.Stack) == 0 {
		t.Error("panic error carries no stack trace")
	}
	if !errors.Is(failed[1].Err, boom) {
		t.Errorf("combo 4 failure = %v, want wrapped deliberate failure", failed[1].Err)
	}

	msgs := Errors(rs)
	if len(msgs) != 2 {
		t.Fatalf("Errors() returned %d entries, want 2", len(msgs))
	}
	if !strings.Contains(msgs[0].Error(), "combo-2") {
		t.Errorf("failure report missing label: %v", msgs[0])
	}
}

func TestRunCancellationSkipsUnstartedItems(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int32
	release := make(chan struct{})
	rs := make(chan []Result[int], 1)
	go func() {
		rs <- Run(ctx, 100, Options{Workers: 2}, func(ctx context.Context, i int) (int, error) {
			started.Add(1)
			<-release
			return i, nil
		})
	}()
	// Let the two workers pick up items, then cancel.
	for started.Load() < 2 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	close(release)
	results := <-rs

	var cancelled, done int
	for _, r := range results {
		switch {
		case r.Err == nil:
			done++
		case errors.Is(r.Err, errs.ErrCancelled):
			cancelled++
		default:
			t.Errorf("item %d: unexpected error %v", r.Index, r.Err)
		}
	}
	if done == 0 || done > 4 {
		t.Errorf("completed items = %d, want the few in flight at cancellation", done)
	}
	if cancelled != len(results)-done {
		t.Errorf("cancelled items = %d, want %d", cancelled, len(results)-done)
	}
}

func TestRunZeroItems(t *testing.T) {
	rs := Run(context.Background(), 0, Options{}, func(_ context.Context, i int) (int, error) {
		t.Fatal("fn called with no items")
		return 0, nil
	})
	if len(rs) != 0 {
		t.Fatalf("got %d results for zero items", len(rs))
	}
}

func TestRunDefaultWorkerCount(t *testing.T) {
	var peak, cur atomic.Int32
	Run(context.Background(), 32, Options{}, func(_ context.Context, i int) (int, error) {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return 0, nil
	})
	if peak.Load() < 1 {
		t.Error("no concurrency observed")
	}
}
