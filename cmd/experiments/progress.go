package main

import (
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/harness"
)

// startProgress renders the campaign event stream as one
// carriage-return-overwritten line on stderr:
//
//	[campaign] 12/48 done · 3 running · 1 failed · 8 cached | fig5/hydra/parest 841 Mcyc
//
// Counts accumulate across every target of the invocation (the bus
// spans them all). The returned stop finalizes the line with a
// newline; it must be called before printing summaries that should not
// collide with the live line. Rendering is throttled so a noisy
// progress stream does not turn stderr into a hot loop.
func startProgress(bus *harness.Bus) (stop func()) {
	ch, cancel := bus.Subscribe(4096, true)
	done := make(chan struct{})
	go func() {
		defer close(done)
		var queued, running, ok, failed, cached int
		var last string // most recent activity, e.g. "key 841 Mcyc"
		var lastLen int
		var lastPaint time.Time
		render := func(force bool) {
			if !force && time.Since(lastPaint) < 100*time.Millisecond {
				return
			}
			lastPaint = time.Now()
			total := queued + cached
			finished := ok + failed + cached
			line := fmt.Sprintf("[campaign] %d/%d done · %d running", finished, total, running)
			if failed > 0 {
				line += fmt.Sprintf(" · %d failed", failed)
			}
			if cached > 0 {
				line += fmt.Sprintf(" · %d cached", cached)
			}
			if last != "" {
				line += " | " + last
			}
			pad := ""
			if n := lastLen - len(line); n > 0 {
				pad = strings.Repeat(" ", n) // blank the previous, longer line
			}
			lastLen = len(line)
			fmt.Fprintf(os.Stderr, "\r%s%s", line, pad)
		}
		for e := range ch {
			switch e.Kind {
			case harness.EvQueued:
				queued++
			case harness.EvStarted:
				running++
				last = e.Key
			case harness.EvProgress:
				last = fmt.Sprintf("%s %d Mcyc", e.Key, e.Cycles/1e6)
			case harness.EvCached:
				cached++
			case harness.EvDone:
				ok++
				running--
				last = fmt.Sprintf("%s %.1fs", e.Key, e.ElapsedSec)
			case harness.EvFailed:
				failed++
				running--
				last = fmt.Sprintf("%s FAILED", e.Key)
			}
			render(e.Terminal())
		}
		render(true)
		fmt.Fprintln(os.Stderr)
	}()
	return func() {
		cancel()
		<-done
	}
}
