package harness

import (
	"sync"
	"testing"
)

func TestBusPublishSubscribeOrder(t *testing.T) {
	b := NewBus(0)
	ch, cancel := b.Subscribe(16, false)
	defer cancel()
	for i := 0; i < 5; i++ {
		b.Publish(CellEvent{Kind: EvProgress, Key: "t/a/b"})
	}
	for i := 1; i <= 5; i++ {
		e := <-ch
		if e.Seq != int64(i) {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
		if e.Schema != CellEventSchema {
			t.Fatalf("event missing schema: %+v", e)
		}
		if e.TSec < 0 {
			t.Fatalf("negative timestamp: %+v", e)
		}
	}
}

func TestBusReplayBacklog(t *testing.T) {
	b := NewBus(8)
	for i := 0; i < 5; i++ {
		b.Publish(CellEvent{Kind: EvQueued, Key: "k"})
	}
	ch, cancel := b.Subscribe(16, true)
	defer cancel()
	for i := 1; i <= 5; i++ {
		if e := <-ch; e.Seq != int64(i) {
			t.Fatalf("replayed seq %d at position %d", e.Seq, i)
		}
	}

	// Replay truncates oldest-first when the backlog exceeds the buffer.
	ch2, cancel2 := b.Subscribe(2, true)
	defer cancel2()
	if e := <-ch2; e.Seq != 4 {
		t.Fatalf("truncated replay starts at seq %d, want 4", e.Seq)
	}
	if e := <-ch2; e.Seq != 5 {
		t.Fatalf("truncated replay second event seq %d, want 5", e.Seq)
	}
	if b.Dropped() != 3 {
		t.Errorf("Dropped = %d, want 3 truncated replay events", b.Dropped())
	}
}

func TestBusRingWraps(t *testing.T) {
	b := NewBus(4)
	for i := 0; i < 10; i++ {
		b.Publish(CellEvent{Kind: EvProgress, Key: "k"})
	}
	ch, cancel := b.Subscribe(8, true)
	defer cancel()
	// Backlog holds the newest 4 events: seq 7..10.
	for want := int64(7); want <= 10; want++ {
		if e := <-ch; e.Seq != want {
			t.Fatalf("wrapped backlog seq %d, want %d", e.Seq, want)
		}
	}
}

func TestBusSlowSubscriberDropsNotBlocks(t *testing.T) {
	b := NewBus(0)
	ch, cancel := b.Subscribe(1, false)
	defer cancel()
	// Publish more than the mailbox holds without draining; must not block.
	for i := 0; i < 10; i++ {
		b.Publish(CellEvent{Kind: EvProgress, Key: "k"})
	}
	if b.Dropped() != 9 {
		t.Errorf("Dropped = %d, want 9", b.Dropped())
	}
	if e := <-ch; e.Seq != 1 {
		t.Errorf("delivered seq %d, want the first event", e.Seq)
	}
}

func TestBusClose(t *testing.T) {
	b := NewBus(0)
	ch, _ := b.Subscribe(4, false)
	b.Publish(CellEvent{Kind: EvDone, Key: "k"})
	b.Close()
	b.Close() // idempotent
	b.Publish(CellEvent{Kind: EvDone, Key: "late"})

	if e, ok := <-ch; !ok || e.Kind != EvDone || e.Key != "k" {
		t.Fatalf("pre-close event not delivered: %+v ok=%v", e, ok)
	}
	if _, ok := <-ch; ok {
		t.Fatal("channel still open after Close")
	}

	// Subscribing to a closed bus yields the backlog, then a closed channel.
	ch2, cancel := b.Subscribe(4, true)
	defer cancel()
	if e, ok := <-ch2; !ok || e.Key != "k" {
		t.Fatalf("closed-bus replay: %+v ok=%v", e, ok)
	}
	if _, ok := <-ch2; ok {
		t.Fatal("closed-bus subscription left open")
	}
}

func TestBusCancelIdempotentUnderPublish(t *testing.T) {
	b := NewBus(0)
	_, cancel := b.Subscribe(1, false)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			b.Publish(CellEvent{Kind: EvProgress, Key: "k"})
		}
	}()
	go func() {
		defer wg.Done()
		cancel()
		cancel()
	}()
	wg.Wait()
}

func TestBusNilSafe(t *testing.T) {
	var b *Bus
	b.Publish(CellEvent{Kind: EvDone}) // must not panic
	b.Close()
	if b.Dropped() != 0 {
		t.Error("nil bus reports drops")
	}
}

func TestBusSubscribeAny(t *testing.T) {
	b := NewBus(0)
	ch, cancel := b.SubscribeAny(4, false)
	defer cancel()
	b.Publish(CellEvent{Kind: EvDone, Key: "k"})
	e, ok := (<-ch).(CellEvent)
	if !ok || e.Key != "k" {
		t.Fatalf("SubscribeAny delivered %#v", e)
	}
	b.Close()
	if _, ok := <-ch; ok {
		t.Fatal("SubscribeAny channel still open after Close")
	}
}

func TestCellEventTerminal(t *testing.T) {
	terminal := map[string]bool{
		EvQueued: false, EvStarted: false, EvProgress: false,
		EvCached: true, EvDone: true, EvFailed: true,
	}
	for kind, want := range terminal {
		if got := (CellEvent{Kind: kind}).Terminal(); got != want {
			t.Errorf("Terminal(%s) = %v, want %v", kind, got, want)
		}
	}
}
