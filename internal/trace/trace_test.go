package trace

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/dram"
	"repro/internal/testutil"
	"repro/internal/workload"
)

func TestRoundTrip(t *testing.T) {
	reqs := []workload.Request{
		{Gap: 0, Line: 100},
		{Gap: 12, Write: true, Line: 90},
		{Gap: 1 << 20, Line: 1 << 40},
		{Gap: 3, Line: 0},
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reqs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != int64(len(reqs)) {
		t.Fatalf("count = %d", w.Count())
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range reqs {
		got, ok := r.Next()
		if !ok || got != want {
			t.Fatalf("record %d = %+v,%v; want %+v", i, got, ok, want)
		}
	}
	if _, ok := r.Next(); ok {
		t.Fatal("extra record")
	}
	if r.Err() != nil {
		t.Fatalf("clean EOF reported error %v", r.Err())
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(gaps []uint16, lines []uint32, writes []bool) bool {
		n := min(len(gaps), len(lines), len(writes))
		reqs := make([]workload.Request, n)
		for i := 0; i < n; i++ {
			reqs[i] = workload.Request{Gap: int(gaps[i]), Line: uint64(lines[i]), Write: writes[i]}
		}
		var buf bytes.Buffer
		w, _ := NewWriter(&buf)
		for _, r := range reqs {
			if err := w.Write(r); err != nil {
				return false
			}
		}
		w.Flush()
		r, err := NewReader(&buf)
		if err != nil {
			return false
		}
		for _, want := range reqs {
			got, ok := r.Next()
			if !ok || got != want {
				return false
			}
		}
		_, ok := r.Next()
		return !ok && r.Err() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBadMagicRejected(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("NOTATRACE..."))); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := NewReader(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty stream accepted")
	}
}

func TestTruncatedRecordReported(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Write(workload.Request{Gap: 5, Line: 42})
	w.Flush()
	data := buf.Bytes()
	r, err := NewReader(bytes.NewReader(data[:len(data)-1]))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Next(); ok {
		t.Fatal("truncated record decoded")
	}
	if r.Err() == nil {
		t.Fatal("truncation not reported")
	}
}

func TestRecordWorkloadStream(t *testing.T) {
	p, err := workload.ByName("xz")
	if err != nil {
		t.Fatal(err)
	}
	mem := dram.Baseline()
	cfg := workload.DefaultStreamConfig(mem, mem.RowsPerBank-17)
	cfg.Scale = 64
	cfg.ActBudget = 2000
	src := testutil.Must(workload.NewStream(p, cfg))

	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	n, err := Record(w, src)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("recorded nothing")
	}
	// The replayed trace must match a freshly generated stream.
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	fresh := testutil.Must(workload.NewStream(p, cfg))
	for i := int64(0); i < n; i++ {
		got, ok1 := r.Next()
		want, ok2 := fresh.Next()
		if !ok1 || !ok2 || got != want {
			t.Fatalf("record %d: %+v vs %+v", i, got, want)
		}
	}
	// Compression sanity: deltas should beat 17 bytes/record raw.
	if perRec := float64(buf.Len()) / float64(n); perRec > 12 {
		t.Errorf("%.1f bytes/record; delta encoding ineffective", perRec)
	}
}

// failWriter fails after n bytes.
type failWriter struct{ left int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.left <= 0 {
		return 0, errFail
	}
	n := len(p)
	if n > f.left {
		n = f.left
	}
	f.left -= n
	if n < len(p) {
		return n, errFail
	}
	return n, nil
}

var errFail = bytes.ErrTooLarge // any sentinel

func TestWriterErrorsPropagate(t *testing.T) {
	if _, err := NewWriter(&failWriter{left: 2}); err == nil {
		// Header is buffered; the error may surface at Flush instead.
		w, _ := NewWriter(&failWriter{left: 2})
		for i := 0; i < 10000; i++ {
			if err := w.Write(workload.Request{Gap: i, Line: uint64(i * 977)}); err != nil {
				return // error surfaced through the buffer: good
			}
		}
		if err := w.Flush(); err == nil {
			t.Fatal("failing writer never reported an error")
		}
	}
}

func TestReaderCount(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	for i := 0; i < 5; i++ {
		w.Write(workload.Request{Gap: i, Line: uint64(i)})
	}
	w.Flush()
	r, _ := NewReader(&buf)
	for {
		if _, ok := r.Next(); !ok {
			break
		}
	}
	if r.Count() != 5 {
		t.Fatalf("Count = %d, want 5", r.Count())
	}
}
