package harness

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

func keys(n int) []string {
	var ks []string
	for i := 0; i < n; i++ {
		ks = append(ks, fmt.Sprintf("exp/variant%d/wl", i))
	}
	return ks
}

func TestPanicIsolation(t *testing.T) {
	var cells []Cell
	for i, k := range keys(6) {
		i, k := i, k
		cells = append(cells, Cell{Key: k, Run: func(ctx context.Context, env Env) (any, error) {
			if i == 3 {
				panic("injected fault in variant 3")
			}
			return i * 10, nil
		}})
	}
	results, err := RunCampaign(context.Background(), cells, Options{Workers: 2})
	if err != nil {
		t.Fatalf("campaign error: %v", err)
	}
	for i, r := range results {
		if i == 3 {
			if r.Err == nil || !r.Panicked {
				t.Fatalf("cell 3: want recovered panic, got %+v", r)
			}
			var pe *PanicError
			if !errors.As(r.Err, &pe) {
				t.Fatalf("cell 3 error is not a *PanicError: %v", r.Err)
			}
			if len(pe.Stack) == 0 {
				t.Fatal("panic error lost its stack")
			}
			continue
		}
		if r.Err != nil {
			t.Fatalf("cell %d failed alongside the panicking cell: %v", i, r.Err)
		}
		if r.Value != i*10 {
			t.Fatalf("cell %d value = %v, want %d", i, r.Value, i*10)
		}
	}
}

func TestWatchdogKillsStalledCell(t *testing.T) {
	cells := []Cell{
		{Key: "ok", Run: func(ctx context.Context, env Env) (any, error) {
			for c := int64(0); c < 50; c++ {
				env.Progress(c)
				time.Sleep(time.Millisecond)
			}
			return "done", nil
		}},
		{Key: "stuck", Run: func(ctx context.Context, env Env) (any, error) {
			// Simulated cycles stop advancing: repeated reports of the
			// same value must not keep the cell alive.
			for {
				env.Progress(7)
				select {
				case <-ctx.Done():
					return nil, context.Cause(ctx)
				case <-time.After(time.Millisecond):
				}
			}
		}},
	}
	results, err := RunCampaign(context.Background(), cells, Options{StallTimeout: 40 * time.Millisecond})
	if err != nil {
		t.Fatalf("campaign error: %v", err)
	}
	if results[0].Err != nil || results[0].Value != "done" {
		t.Fatalf("healthy cell disturbed: %+v", results[0])
	}
	if !errors.Is(results[1].Err, ErrStalled) || !results[1].Stalled {
		t.Fatalf("stuck cell: want ErrStalled, got %+v", results[1])
	}
}

func TestCellTimeout(t *testing.T) {
	cells := []Cell{{Key: "slow", Run: func(ctx context.Context, env Env) (any, error) {
		for c := int64(0); ; c++ {
			env.Progress(c) // advancing, so only the wall clock can stop it
			select {
			case <-ctx.Done():
				return nil, context.Cause(ctx)
			case <-time.After(time.Millisecond):
			}
		}
	}}}
	results, err := RunCampaign(context.Background(), cells,
		Options{CellTimeout: 30 * time.Millisecond, StallTimeout: time.Second})
	if err != nil {
		t.Fatalf("campaign error: %v", err)
	}
	if results[0].Err == nil {
		t.Fatal("timeout did not kill the cell")
	}
}

func TestCampaignValidation(t *testing.T) {
	run := func(ctx context.Context, env Env) (any, error) { return nil, nil }
	if _, err := RunCampaign(context.Background(),
		[]Cell{{Key: "a", Run: run}, {Key: "a", Run: run}}, Options{}); err == nil {
		t.Fatal("duplicate keys accepted")
	}
	if _, err := RunCampaign(context.Background(), []Cell{{Key: "", Run: run}}, Options{}); err == nil {
		t.Fatal("empty key accepted")
	}
	if _, err := RunCampaign(context.Background(), []Cell{{Key: "a"}}, Options{}); err == nil {
		t.Fatal("nil Run accepted")
	}
}

func TestCampaignCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var cells []Cell
	cells = append(cells, Cell{Key: "running", Run: func(ctx context.Context, env Env) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	}})
	for _, k := range keys(4) {
		cells = append(cells, Cell{Key: k, Run: func(ctx context.Context, env Env) (any, error) {
			return nil, nil
		}})
	}
	go func() {
		<-started
		cancel()
	}()
	results, err := RunCampaign(ctx, cells, Options{Workers: 1})
	if err == nil {
		t.Fatal("cancelled campaign reported success")
	}
	if len(results) != len(cells) {
		t.Fatalf("want %d results even on abort, got %d", len(cells), len(results))
	}
	for _, r := range results {
		if r.Key == "" {
			t.Fatal("abandoned cell left without a key/verdict")
		}
	}
}
