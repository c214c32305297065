package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"
)

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for start := time.Now(); time.Since(start) < d; n++ {
		for i := 0; i < 1000; i++ {
			n ^= i
		}
	}
	return n
}

func hashFor(d time.Duration) [32]byte {
	var sum [32]byte
	buf := make([]byte, 4096)
	for start := time.Now(); time.Since(start) < d; {
		sum = sha256.Sum256(buf)
		buf[0] = sum[0]
	}
	return sum
}

// TestFoldChargesLabelledSamplesToLeafPackage profiles a labelled
// SHA-256 loop (package crypto/..., layer codec) next to an unlabelled
// busy loop in this package, and checks that the fold keeps only the
// labelled samples and charges them to the leaf frame's package.
func TestFoldChargesLabelledSamplesToLeafPackage(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler busy: %v", err)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		pprof.Do(context.Background(), pprof.Labels(labelKey, "test"), func(context.Context) { hashFor(time.Second) })
	}()
	go func() {
		defer wg.Done()
		spin(time.Second)
	}()
	wg.Wait()
	pprof.StopCPUProfile()

	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	byLayer, n := p.fold(labelKey, func(fn string) string { return layerOf(packageOf(fn)) })
	if n < 20 {
		t.Skipf("only %d labelled samples; machine too loaded to judge", n)
	}
	var total int64
	for _, ns := range byLayer {
		total += ns
	}
	if share := float64(byLayer["codec"]) / float64(total); share < 0.6 {
		t.Errorf("codec share of labelled samples = %.2f, want >= 0.6 (layers %v)", share, byLayer)
	}
	spinSamples := map[bool]int{} // by whether the sample is labelled
	for _, s := range p.samples {
		if len(s.locs) > 0 && strings.HasSuffix(p.leafFunc[s.locs[0]], ".spin") {
			_, labelled := s.labels[labelKey]
			spinSamples[labelled]++
		}
	}
	if spinSamples[true] != 0 {
		t.Errorf("%d samples of the unlabelled spin loop carry the label", spinSamples[true])
	}
	if spinSamples[false] == 0 {
		t.Error("no samples in the unlabelled spin loop: the profile lost the control")
	}
	if _, n := p.fold("no-such-label", packageOf); n != 0 {
		t.Errorf("fold on an absent label kept %d samples", n)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/memsim.(*channel).pick":              "memsim",
		"repro/internal/cache.(*Cache[go.shape.uint32]).Get": "cache",
		"repro/internal/rngstream.Derive":                    "other",
		"runtime.mallocgc":                                   "runtime",
		"runtime.gcWriteBarrier2":                            "runtime",
		"internal/runtime/maps.(*Map).getWithKeyString":      "runtime",
		"internal/runtime/syscall.Syscall6":                  "io",
		"syscall.Syscall":                                    "io",
		"os.(*File).Write":                                   "io",
		"internal/poll.(*FD).Fsync":                          "io",
		"encoding/json.(*decodeState).object":                "codec",
		"strconv.ParseFloat":                                 "codec",
		"crypto/internal/fips140/sha256.blockAVX2":           "codec",
		"slices.SortFunc[go.shape.[]int,go.shape.int]":       "other",
		"main.run": "other",
		"":         "other",
	} {
		if got := layerOf(packageOf(fn)); got != want {
			t.Errorf("layerOf(packageOf(%q)) = %q, want %q", fn, got, want)
		}
	}
}

func TestSelfTimeIsDurationMinusChildCoverage(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50},  // overlaps span 2
		{ID: 4, Parent: 1, Start: 90, End: 120}, // runs past its parent
		{ID: 5, Parent: 3, Start: 25, End: 35},  // grandchild
		{ID: 6, Start: 200, End: 260},           // a root with no children
	}
	setSelfTimes(spans)
	want := map[int]int64{1: 100 - 40 - 10, 2: 20, 3: 30 - 10, 4: 30, 5: 10, 6: 60}
	for _, s := range spans {
		if s.Self != want[s.ID] {
			t.Errorf("span %d self = %d, want %d", s.ID, s.Self, want[s.ID])
		}
	}
}
