package obsv

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/iofault"
)

// ReportSchema identifies the run-report JSON shape; bump on breaking
// changes so downstream tooling can dispatch.
const ReportSchema = "hydra-run-report/v1"

// Report is the machine-readable artifact of one experiment target: a
// self-describing record of what ran (tool, target, parameters), how
// it performed per workload, and the full metric snapshot spanning the
// memory system, the tracker, and the mitigation layer. One report per
// target; cmd/experiments writes them wrapped in a ReportFile.
type Report struct {
	Schema    string         `json:"schema"`
	Tool      string         `json:"tool"`
	Target    string         `json:"target"`
	CreatedAt time.Time      `json:"created_at"`
	GoVersion string         `json:"go_version"`
	Params    map[string]any `json:"params,omitempty"`

	// ElapsedSec is the wall-clock runtime of the target.
	ElapsedSec float64 `json:"elapsed_sec"`

	// Schemes lists the tracker configurations swept, excluding the
	// non-secure baseline (for perf targets).
	Schemes []string `json:"schemes,omitempty"`

	// Workloads holds the per-workload results (for perf targets).
	Workloads []WorkloadReport `json:"workloads,omitempty"`

	// Cells records the fate of every sweep cell the campaign harness
	// ran for this target, including failed cells (which have no
	// workload row).
	Cells []CellStatus `json:"cells,omitempty"`

	// Geomeans maps scheme -> suite -> geometric-mean normalized
	// performance, including the "ALL" aggregate (the paper's bar
	// groups).
	Geomeans map[string]map[string]float64 `json:"geomeans,omitempty"`

	// Metrics is the aggregated snapshot across every simulated run of
	// the target: counters summed, histograms merged.
	Metrics Metrics `json:"metrics,omitempty"`

	// Extra carries targets whose natural shape is not a perf sweep
	// (storage tables, attack oracles), marshaled as-is.
	Extra any `json:"extra,omitempty"`
}

// Cell statuses recorded in CellStatus.Status.
const (
	CellOK     = "ok"     // computed this run
	CellFailed = "failed" // the cell failed; Error says why
	CellCached = "cached" // value replayed from the result cache
	// CellBaselineMissing marks a scheme cell that simulated fine but
	// could not be normalized because its baseline cell failed — a
	// different signal than a failure of the cell itself (chaos and
	// resilience reports need to tell them apart).
	CellBaselineMissing = "baseline-missing"
)

// CellStatus is the per-cell verdict of a harness campaign: one entry
// per (variant, workload) simulation, whether it succeeded, was
// replayed from the result cache, or failed. Decoding must keep
// ignoring unknown fields: older reports carry a per-cell "attempts"
// and "stalled".
type CellStatus struct {
	// Key identifies the cell, "target/variant/workload".
	Key string `json:"key"`
	// Status is one of the Cell* status constants above.
	Status string `json:"status"`
	// Error is the failed cell's error, or the reason a
	// baseline-missing cell could not be normalized.
	Error string `json:"error,omitempty"`
	// Panicked flags a failed cell that died by panic.
	Panicked bool `json:"panicked,omitempty"`
	// ElapsedSec is the cell's wall-clock time.
	ElapsedSec float64 `json:"elapsed_sec,omitempty"`
	// Cycles is the cell's simulated-cycle count: the simulator's own
	// result for completed cells, and for a failed one the last cycle
	// it reported to a campaign with an event bus (how far it got
	// before dying; 0 without a bus). Zero for
	// cached cells, which replay a value without simulating.
	// Together with ElapsedSec this gives hydrastat a cycles-per-second
	// rate to rank slow cells by.
	Cycles int64 `json:"cycles,omitempty"`
}

// Validate checks the cell's invariants.
func (c CellStatus) Validate() error {
	if c.Key == "" {
		return fmt.Errorf("obsv: cell status missing key")
	}
	switch c.Status {
	case CellOK, CellCached:
		if c.Error != "" {
			return fmt.Errorf("obsv: cell %s: status %q with error %q", c.Key, c.Status, c.Error)
		}
	case CellFailed:
		if c.Error == "" {
			return fmt.Errorf("obsv: cell %s: failed without an error", c.Key)
		}
	case CellBaselineMissing:
		if c.Error == "" {
			return fmt.Errorf("obsv: cell %s: baseline-missing without a reason", c.Key)
		}
	default:
		return fmt.Errorf("obsv: cell %s: unknown status %q", c.Key, c.Status)
	}
	return nil
}

// WorkloadReport is one workload's row of a perf target.
type WorkloadReport struct {
	Name  string `json:"name"`
	Suite string `json:"suite"`
	// NormPerf maps scheme -> performance normalized to the non-secure
	// baseline (1.0 = no slowdown).
	NormPerf map[string]float64 `json:"norm_perf"`
	// SlowdownPct maps scheme -> (1-NormPerf)*100, the paper's unit.
	SlowdownPct map[string]float64 `json:"slowdown_pct"`
	// Metrics maps scheme -> that run's metric snapshot.
	Metrics map[string]Metrics `json:"metrics,omitempty"`
}

// NewReport stamps the envelope fields common to every tool.
func NewReport(tool, target string) *Report {
	return &Report{
		Schema:    ReportSchema,
		Tool:      tool,
		Target:    target,
		CreatedAt: time.Now().UTC(),
		GoVersion: runtime.Version(),
	}
}

// Validate checks the fields every consumer relies on. It is the
// contract the BENCH trajectory tests pin.
func (r *Report) Validate() error {
	switch {
	case r.Schema != ReportSchema:
		return fmt.Errorf("obsv: report schema %q, want %q", r.Schema, ReportSchema)
	case r.Tool == "":
		return fmt.Errorf("obsv: report missing tool")
	case r.Target == "":
		return fmt.Errorf("obsv: report missing target")
	case r.CreatedAt.IsZero():
		return fmt.Errorf("obsv: report missing created_at")
	case r.GoVersion == "":
		return fmt.Errorf("obsv: report missing go_version")
	}
	for _, w := range r.Workloads {
		if w.Name == "" {
			return fmt.Errorf("obsv: workload report missing name")
		}
		if len(w.NormPerf) == 0 {
			return fmt.Errorf("obsv: workload %s missing norm_perf", w.Name)
		}
		for s, v := range w.NormPerf {
			if v <= 0 {
				return fmt.Errorf("obsv: workload %s scheme %s: non-positive norm_perf %g", w.Name, s, v)
			}
		}
	}
	for _, c := range r.Cells {
		if err := c.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// ReportFile is the on-disk envelope: one file may hold several
// targets' reports from a single invocation.
type ReportFile struct {
	Schema  string    `json:"schema"`
	Reports []*Report `json:"reports"`
}

// ReportFileSchema identifies the file envelope.
const ReportFileSchema = "hydra-report-file/v1"

// NewReportFile wraps reports in the file envelope.
func NewReportFile(reports ...*Report) *ReportFile {
	return &ReportFile{Schema: ReportFileSchema, Reports: reports}
}

// Validate checks the envelope and every contained report.
func (f *ReportFile) Validate() error {
	if f.Schema != ReportFileSchema {
		return fmt.Errorf("obsv: report file schema %q, want %q", f.Schema, ReportFileSchema)
	}
	if len(f.Reports) == 0 {
		return fmt.Errorf("obsv: report file has no reports")
	}
	for i, r := range f.Reports {
		if r == nil { // a JSON null decodes to a nil *Report
			return fmt.Errorf("obsv: report file entry %d is null", i)
		}
		if err := r.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Encode writes the file as indented JSON.
func (f *ReportFile) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}

// WriteFile writes the report file to path ("-" means stdout) over the
// real filesystem. See WriteFileFS.
func (f *ReportFile) WriteFile(path string) error {
	return f.WriteFileFS(iofault.OS{}, path)
}

// WriteFileFS writes the report file to path ("-" means stdout),
// performing the IO through fsys with the full atomic-write crash
// discipline (iofault.WriteAtomic): an interrupted or crashed run
// leaves the previous report or none, never a truncated JSON file.
func (f *ReportFile) WriteFileFS(fsys iofault.FS, path string) error {
	if path == "-" {
		return f.Encode(os.Stdout)
	}
	var buf bytes.Buffer
	if err := f.Encode(&buf); err != nil {
		return err
	}
	return iofault.WriteAtomic(fsys, path, buf.Bytes())
}

// Normalize strips the operational noise a report legitimately picks
// up between two runs of identical work, leaving only the scientific
// content, so two reports can be compared bitwise:
//
//   - CreatedAt collapses to the Unix epoch (a fixed non-zero instant,
//     so Validate still passes) and ElapsedSec to zero — wall-clock;
//   - Cells drop entirely — the same result is "ok" in a clean run and
//     "cached" when a rerun after a crash or on a warm cache replays it;
//   - cache.* metrics drop — hit/miss traffic depends on the IO
//     history, not the simulated system.
//
// The crash-point sweep and the SIGINT resume test call this on both
// sides before comparing encodings; everything left MUST be identical
// or determinism is broken.
func (r *Report) Normalize() {
	r.CreatedAt = time.Unix(0, 0).UTC()
	r.ElapsedSec = 0
	r.Cells = nil
	for name := range r.Metrics {
		if strings.HasPrefix(name, "cache.") || strings.HasPrefix(name, "campaign.") {
			delete(r.Metrics, name)
		}
	}
}

// Normalize applies Report.Normalize to every contained report.
func (f *ReportFile) Normalize() {
	for _, r := range f.Reports {
		if r != nil {
			r.Normalize()
		}
	}
}

// DecodeReportFile parses and validates a report file from bytes. It
// must never panic on any input: it is the boundary downstream tooling
// feeds untrusted files through (fuzzed in report_fuzz_test.go).
func DecodeReportFile(data []byte) (*ReportFile, error) {
	var f ReportFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("obsv: decoding report file: %w", err)
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return &f, nil
}

// ReadReportFile parses and validates a report file from disk, the
// round-trip used by regression tooling.
func ReadReportFile(path string) (*ReportFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f, err := DecodeReportFile(data)
	if err != nil {
		return nil, fmt.Errorf("obsv: %s: %w", path, err)
	}
	return f, nil
}
