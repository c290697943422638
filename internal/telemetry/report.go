package telemetry

import (
	"encoding/json"
	"os"
	"time"
)

// Report is a structured per-run report: what tool ran, with what
// configuration, for how long, and the full metrics snapshot it
// accumulated. The cmd tools write one with -report out.json.
type Report struct {
	Schema int `json:"schema"`
	// Tool is the producing command ("firmup", "fwcrawl", "fwdump").
	Tool string `json:"tool"`
	// Started is the run's start time, RFC 3339 UTC.
	Started string `json:"started"`
	// WallNs is the run's total wall time in nanoseconds.
	WallNs int64 `json:"wall_ns"`
	// Config records the knobs that shape the run's performance
	// profile (worker budget and index enablement).
	Config ReportConfig `json:"config"`
	// Metrics is the session registry's final snapshot.
	Metrics Snapshot `json:"metrics"`
}

// ReportConfig is the run configuration block of a Report.
type ReportConfig struct {
	Workers int  `json:"workers"`
	Index   bool `json:"index"`
}

// NewReport starts a report for the named tool, stamping the start
// time. Finish it with Finish and write it with WriteFile.
func NewReport(tool string, cfg ReportConfig) *Report {
	return &Report{
		Schema:  SchemaVersion,
		Tool:    tool,
		Started: time.Now().UTC().Format(time.RFC3339),
		Config:  cfg,
	}
}

// Finish stamps the wall time (relative to the report's Started time)
// and captures the registry's final snapshot. A nil registry yields an
// empty metrics block.
func (rep *Report) Finish(r *Registry) {
	if t0, err := time.Parse(time.RFC3339, rep.Started); err == nil {
		rep.WallNs = int64(time.Since(t0))
	}
	rep.Metrics = r.Snapshot()
}

// WriteFile marshals the report as indented JSON to path.
func (rep *Report) WriteFile(path string) error {
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}
