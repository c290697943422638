package telemetry

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"
)

func TestReportRoundTripAndValidation(t *testing.T) {
	r := New()
	r.Counter("exe.analyzed").Add(3)
	r.Histogram("game.steps").Observe(1)
	rep := NewReport("firmup", ReportConfig{Workers: 4, Index: true})
	rep.Finish(r)

	path := t.TempDir() + "/report.json"
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	back, err := parseReport(blob)
	if err != nil {
		t.Fatal(err)
	}
	if back.Tool != "firmup" || back.Config.Workers != 4 || !back.Config.Index {
		t.Errorf("report lost fields: %+v", back)
	}
	if back.Metrics.Counters["exe.analyzed"] != 3 {
		t.Errorf("metrics lost: %+v", back.Metrics)
	}

	for _, bad := range []string{
		"", "{}", `{"schema": 999, "tool": "x"}`,
		fmt.Sprintf(`{"schema": %d, "tool": ""}`, SchemaVersion),
		fmt.Sprintf(`{"schema": %d, "tool": "x", "metrics": {"schema": 0}}`, SchemaVersion),
	} {
		if _, err := parseReport([]byte(bad)); err == nil {
			t.Errorf("parseReport(%q) accepted invalid input", bad)
		}
	}
}

// TestReportFileSchema validates an externally produced run report —
// the CI smoke step points FIRMUP_REPORT_FILE at the output of
// `firmup -report` over the generated corpus and requires the
// pipeline's stage sections and the Fig. 9 steps histogram.
func TestReportFileSchema(t *testing.T) {
	path := os.Getenv("FIRMUP_REPORT_FILE")
	if path == "" {
		t.Skip("FIRMUP_REPORT_FILE not set; run via the CI report smoke step")
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := parseReport(blob)
	if err != nil {
		t.Fatal(err)
	}
	if rep.WallNs <= 0 {
		t.Errorf("wall_ns = %d, want positive", rep.WallNs)
	}
	if len(rep.Metrics.Stages) == 0 {
		t.Fatal("report has no stage sections")
	}
	for _, stage := range []string{"obj.parse", "cfg.recover", "sim.build", "core.search"} {
		s, ok := rep.Metrics.Stages[stage]
		if !ok || s.Calls == 0 {
			t.Errorf("stage %q missing or never ran: %+v", stage, rep.Metrics.Stages)
		}
	}
	steps, ok := rep.Metrics.Histograms["game.steps"]
	if !ok || steps.Count == 0 || len(steps.Buckets) == 0 {
		t.Errorf("steps-per-game histogram missing or empty: %+v", rep.Metrics.Histograms)
	}
	if rep.Metrics.Counters["game.played"] == 0 {
		t.Errorf("no games recorded: %+v", rep.Metrics.Counters)
	}
}

func TestServeDebugEndpoints(t *testing.T) {
	r := New()
	r.Counter("smoke").Add(9)
	addr, err := ServeDebug("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Timeout: 5 * time.Second}
	get := func(path string) string {
		resp, err := client.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		var sb strings.Builder
		buf := make([]byte, 64<<10)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return sb.String()
	}
	if body := get("/debug/firmup"); !strings.Contains(body, `"smoke": 9`) {
		t.Errorf("/debug/firmup lacks the counter: %s", body)
	}
	if body := get("/debug/vars"); !strings.Contains(body, `"firmup"`) {
		t.Errorf("/debug/vars lacks the published registry: %.200s", body)
	}
	if body := get("/debug/pprof/cmdline"); body == "" {
		t.Error("/debug/pprof/cmdline empty")
	}
}

// parseReport decodes a report and checks its structure: the schema
// version must match, the tool must be named, and the metrics block must
// be present.
func parseReport(data []byte) (*Report, error) {
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, err
	}
	switch {
	case rep.Schema != SchemaVersion, rep.Metrics.Schema != SchemaVersion:
		return nil, fmt.Errorf("schema %d, metrics schema %d, want %d", rep.Schema, rep.Metrics.Schema, SchemaVersion)
	case rep.Tool == "":
		return nil, errors.New("missing tool")
	}
	return &rep, nil
}
