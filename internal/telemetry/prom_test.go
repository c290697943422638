package telemetry

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

func TestPromExpositionRendersAllKinds(t *testing.T) {
	r := New()
	r.Counter("serve.requests").Add(42)
	r.Gauge("serve.inflight").Set(3)
	r.GaugeFunc("serve.uptime_s", func() int64 { return 7 })
	h := r.Histogram("serve.latency_us")
	h.Observe(0)
	h.Observe(5)
	h.Observe(900)
	sp := Root(r, nil).Start("core.search")
	sp.End()

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE firmup_serve_requests_total counter\nfirmup_serve_requests_total 42\n",
		"# TYPE firmup_serve_inflight gauge\nfirmup_serve_inflight 3\n",
		"# TYPE firmup_serve_uptime_s gauge\nfirmup_serve_uptime_s 7\n",
		"# TYPE firmup_serve_latency_us histogram\n",
		`firmup_serve_latency_us_bucket{le="0"} 1`,
		`firmup_serve_latency_us_bucket{le="+Inf"} 3`,
		"firmup_serve_latency_us_sum 905\n",
		"firmup_serve_latency_us_count 3\n",
		"# TYPE firmup_core_search_calls_total counter\n",
		"firmup_core_search_seconds_total ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition lacks %q:\n%s", want, out)
		}
	}
	if err := ValidateExposition(buf.Bytes()); err != nil {
		t.Fatalf("self-validation: %v\n%s", err, out)
	}
}

func TestPromHistogramCumulative(t *testing.T) {
	r := New()
	h := r.Histogram("x.h")
	for _, v := range []int64{1, 2, 2, 5, 100, 1 << 40} {
		h.Observe(v)
	}
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r); err != nil {
		t.Fatal(err)
	}
	if err := ValidateExposition(buf.Bytes()); err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	// The overflow observation has no finite bucket: only +Inf covers it.
	out := buf.String()
	if !strings.Contains(out, `firmup_x_h_bucket{le="+Inf"} 6`) {
		t.Errorf("+Inf bucket must count the overflow observation:\n%s", out)
	}
	if !strings.Contains(out, "firmup_x_h_count 6\n") {
		t.Errorf("count mismatch:\n%s", out)
	}
}

func TestPromNilRegistry(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("nil registry rendered %q", buf.String())
	}
}

func TestPromDeterministicOrder(t *testing.T) {
	build := func() string {
		r := New()
		r.Counter("b.two").Inc()
		r.Counter("a.one").Inc()
		r.Gauge("z.g").Set(1)
		r.Histogram("m.h").Observe(3)
		var buf bytes.Buffer
		if err := WritePrometheus(&buf, r); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if a, b := build(), build(); a != b {
		t.Fatalf("exposition not deterministic:\n%s\nvs\n%s", a, b)
	}
}

func TestValidateExpositionRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"undeclared sample": "some_metric 1\n",
		"bad value":         "# TYPE m counter\nm notanumber\n",
		"non-cumulative": "# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 5\nh_bucket{le=\"3\"} 2\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n",
		"missing inf": "# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 5\nh_sum 1\nh_count 5\n",
		"inf/count mismatch": "# TYPE h histogram\n" +
			"h_bucket{le=\"+Inf\"} 4\nh_sum 1\nh_count 5\n",
	}
	for name, data := range cases {
		if err := ValidateExposition([]byte(data)); err == nil {
			t.Errorf("%s: validator accepted malformed exposition", name)
		}
	}
}

// TestPromExpositionFile validates a scrape captured from a live
// firmupd (the CI smoke step curls /metrics?format=prom into a file and
// points FIRMUPD_PROM_FILE at it). Skipped when the variable is unset.
func TestPromExpositionFile(t *testing.T) {
	path := os.Getenv("FIRMUPD_PROM_FILE")
	if path == "" {
		t.Skip("FIRMUPD_PROM_FILE not set")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateExposition(data); err != nil {
		t.Fatalf("invalid exposition: %v", err)
	}
	out := string(data)
	for _, want := range []string{
		"firmup_serve_requests_total",
		"# TYPE firmup_serve_latency_us histogram",
		"firmup_serve_uptime_s",
		"firmup_serve_corpus_age_s",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("live scrape lacks %q", want)
		}
	}
}
