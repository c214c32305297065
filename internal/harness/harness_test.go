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

// progressCell runs one cell on a campaign with a Bus. The cell
// reports a rising simulated cycle about once a millisecond for runFor
// of wall time; the result is every event the campaign published.
func progressCell(t *testing.T, runFor time.Duration) []CellEvent {
	t.Helper()
	bus := NewBus(0)
	ch, cancel := bus.Subscribe(4096, false)
	defer cancel()
	cell := Cell{Key: "exp/variant/wl", Run: func(ctx context.Context, env Env) (any, error) {
		start := time.Now()
		for c := int64(1); time.Since(start) < runFor; c++ {
			env.Progress(c * 1000)
			time.Sleep(time.Millisecond)
		}
		return "done", nil
	}}
	results, err := RunCampaign(context.Background(), []Cell{cell}, Options{Bus: bus})
	if err != nil || results[0].Err != nil {
		t.Fatalf("campaign: %v, cell: %+v", err, results[0])
	}
	bus.Close()
	var events []CellEvent
	for e := range ch {
		events = append(events, e)
	}
	return events
}

// TestProgressEventsFromSimulatorReports pins the bus progress path:
// every Env.Progress report is a sample, and one becomes a progress
// event once progressEvery has passed since the cell started.
func TestProgressEventsFromSimulatorReports(t *testing.T) {
	var progress []CellEvent
	for _, e := range progressCell(t, 700*time.Millisecond) {
		if e.Kind == EvProgress {
			progress = append(progress, e)
		}
	}
	if len(progress) == 0 {
		t.Fatal("a 700 ms cell reporting every millisecond published no progress event")
	}
	for _, e := range progress {
		if e.Cycles <= 0 || e.ElapsedSec < progressEvery.Seconds() {
			t.Errorf("progress event %+v: want cycles > 0, no sooner than %v after the start", e, progressEvery)
		}
	}
}

// TestShortCellPublishesNoProgress: a cell that settles within
// progressEvery publishes only its lifecycle events. Every cell of the
// end-to-end benchmark's campaigns is that short.
func TestShortCellPublishesNoProgress(t *testing.T) {
	var kinds []string
	events := progressCell(t, 50*time.Millisecond)
	for _, e := range events {
		kinds = append(kinds, e.Kind)
	}
	if want := []string{EvQueued, EvStarted, EvDone}; fmt.Sprint(kinds) != fmt.Sprint(want) {
		t.Fatalf("events %v, want %v", kinds, want)
	}
	if last := events[len(events)-1]; last.Cycles <= 0 {
		t.Fatalf("done event %+v lost the last reported cycle", last)
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
	results, err := RunCampaign(context.Background(), cells, Options{CellTimeout: 30 * time.Millisecond})
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
