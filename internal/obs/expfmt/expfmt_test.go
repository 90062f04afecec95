package expfmt

import (
	"strings"
	"testing"
)

const goodExposition = `# HELP gcxd_requests_total Requests served, by endpoint.
# TYPE gcxd_requests_total counter
gcxd_requests_total{endpoint="query"} 3
gcxd_requests_total{endpoint="bulk"} 0
# HELP gcxd_buffer_peak_nodes_sum Summed per-run buffer peaks.
# TYPE gcxd_buffer_peak_nodes_sum counter
gcxd_buffer_peak_nodes_sum 42
# HELP gcxd_bulk_utilization_ratio Bulk pool utilization.
# TYPE gcxd_bulk_utilization_ratio gauge
gcxd_bulk_utilization_ratio 0.75
# HELP gcxd_ttfr_seconds Time to first result byte.
# TYPE gcxd_ttfr_seconds histogram
gcxd_ttfr_seconds_bucket{query="q1",le="0.001"} 1
gcxd_ttfr_seconds_bucket{query="q1",le="0.01"} 3
gcxd_ttfr_seconds_bucket{query="q1",le="+Inf"} 4
gcxd_ttfr_seconds_sum{query="q1"} 0.05
gcxd_ttfr_seconds_count{query="q1"} 4
`

func TestParseExpositionGood(t *testing.T) {
	exp, err := ParseExposition([]byte(goodExposition))
	if err != nil {
		t.Fatalf("ParseExposition: %v", err)
	}
	f := exp.Family("gcxd_requests_total")
	if f == nil || f.Type != "counter" || len(f.Samples) != 2 {
		t.Fatalf("gcxd_requests_total family = %+v", f)
	}
	if f.Samples[0].Label("endpoint") != "query" || f.Samples[0].Value != 3 {
		t.Errorf("sample = %+v", f.Samples[0])
	}
	// The _sum-suffixed counter keeps its own family.
	if f := exp.Family("gcxd_buffer_peak_nodes_sum"); f == nil || f.Type != "counter" {
		t.Errorf("suffix-named counter mis-familied: %+v", f)
	}
	h := exp.Family("gcxd_ttfr_seconds")
	if h == nil || h.Type != "histogram" || len(h.Samples) != 5 {
		t.Fatalf("histogram family = %+v", h)
	}
}

func TestParseExpositionRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"no final newline":                 strings.TrimSuffix(goodExposition, "\n"),
		"empty":                            "",
		"sample without TYPE":              "# HELP lonely a metric\nlonely 1\n",
		"sample without HELP":              "# TYPE lonely counter\nlonely 1\n",
		"bad comment":                      "# NOTE hi there\n",
		"bad type":                         "# HELP m x\n# TYPE m distribution\nm 1\n",
		"bad metric name":                  "# HELP 9m x\n# TYPE 9m counter\n9m 1\n",
		"bad value":                        "# HELP m x\n# TYPE m counter\nm one\n",
		"two values":                       "# HELP m x\n# TYPE m counter\nm 1 2\n",
		"unterminated labels":              "# HELP m x\n# TYPE m counter\nm{a=\"b\" 1\n",
		"unquoted label":                   "# HELP m x\n# TYPE m counter\nm{a=b} 1\n",
		"duplicate series":                 "# HELP m x\n# TYPE m counter\nm{a=\"b\"} 1\nm{a=\"b\"} 2\n",
		"duplicate HELP":                   "# HELP m x\n# HELP m y\n# TYPE m counter\nm 1\n",
		"TYPE after samples":               "# HELP m x\n# TYPE m counter\nm 1\n# TYPE m counter\n",
		"reserved label":                   "# HELP m x\n# TYPE m counter\nm{__name__=\"m\"} 1\n",
		"histogram no +Inf":                "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
		"histogram no le":                  "# HELP h x\n# TYPE h histogram\nh_bucket 1\nh_sum 1\nh_count 1\n",
		"histogram not cum":                "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n",
		"histogram inf!=count":             "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 4\n",
		"histogram no sum":                 "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_count 1\n",
		"family no samples ok but no help": "# TYPE m counter\n",
	}
	for name, text := range cases {
		if _, err := ParseExposition([]byte(text)); err == nil {
			t.Errorf("%s: parser accepted malformed exposition:\n%s", name, text)
		}
	}
}

func TestParseExpositionLabelEscapes(t *testing.T) {
	text := "# HELP m x\n# TYPE m counter\nm{q=\"a\\\\b\\\"c\\nd\"} 1\n"
	exp, err := ParseExposition([]byte(text))
	if err != nil {
		t.Fatalf("ParseExposition: %v", err)
	}
	got := exp.Family("m").Samples[0].Label("q")
	if got != "a\\b\"c\nd" {
		t.Fatalf("unescaped label = %q", got)
	}
}
