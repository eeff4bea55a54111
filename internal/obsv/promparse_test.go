package obsv

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// Two suites over the public ParseProm API, the parser bftmon ingests
// live scrapes with. Parser-level: the format violations a scraper must
// reject, label handling, and histogram reconstruction — independent of
// what WriteProm happens to emit. Exporter-level: WriteProm output must
// survive that strict parser and the per-type rules a collector
// enforces on top, so exporter drift (a missing HELP, interleaved
// families, a broken bucket ladder) fails here rather than at the first
// real scrape.

// parsePromStrict parses a full exposition document or fails the test.
func parsePromStrict(t *testing.T, text string) []*PromFamily {
	t.Helper()
	families, err := ParseProm(strings.NewReader(text))
	if err != nil {
		t.Fatalf("exposition document rejected: %v", err)
	}
	return families
}

func TestParsePromDocument(t *testing.T) {
	doc := strings.Join([]string{
		`# HELP demo_total A counter.`,
		`# TYPE demo_total counter`,
		`demo_total{node="r0",phase="prepare"} 3`,
		`demo_total{node="r1",phase="pre-prepare"} 1`,
		`# HELP demo_gauge A gauge with escapes.`,
		`# TYPE demo_gauge gauge`,
		`demo_gauge{msg="a,b\"c"} -2.5`,
		`# HELP demo_us A histogram.`,
		`# TYPE demo_us histogram`,
		`demo_us_bucket{le="0"} 1`,
		`demo_us_bucket{le="7"} 4`,
		`demo_us_bucket{le="+Inf"} 5`,
		`demo_us_sum 40`,
		`demo_us_count 5`,
	}, "\n") + "\n"

	families := parsePromStrict(t, doc)
	if len(families) != 3 {
		t.Fatalf("parsed %d families, want 3", len(families))
	}
	c := families[0]
	if c.Name != "demo_total" || c.Type != "counter" || c.Help != "A counter." || len(c.Samples) != 2 {
		t.Fatalf("counter family = %+v", c)
	}
	if c.Samples[0].Labels["node"] != "r0" || c.Samples[0].Value != 3 {
		t.Fatalf("counter sample = %+v", c.Samples[0])
	}
	g := families[1]
	if g.Samples[0].Labels["msg"] != `a,b"c` || g.Samples[0].Value != -2.5 {
		t.Fatalf("gauge sample with escaped label = %+v", g.Samples[0])
	}
	hists, err := families[2].Histograms()
	if err != nil {
		t.Fatal(err)
	}
	if len(hists) != 1 {
		t.Fatalf("got %d histogram series, want 1", len(hists))
	}
	h := hists[0]
	if h.Count != 5 || h.Sum != 40 || len(h.Buckets) != 3 {
		t.Fatalf("histogram = %+v", h)
	}
	if !math.IsInf(h.Buckets[2].Upper, 1) || h.Buckets[2].Cum != 5 {
		t.Fatalf("+Inf bucket = %+v", h.Buckets[2])
	}
}

func TestParsePromRejectsMalformedDocuments(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		want string // substring of the error
	}{
		{"blank line", "# HELP a_total x\n# TYPE a_total counter\n\na_total 1\n", "blank line"},
		{"help without text", "# HELP a_total\n", "HELP without text"},
		{"help twice before type", "# HELP a_total x\n# HELP b_total y\n", "without a TYPE between"},
		{"type without help", "# TYPE a_total counter\n", "not immediately preceded by its HELP"},
		{"unknown type", "# HELP a_total x\n# TYPE a_total bogus\n", "unknown type"},
		{"sample before type", "# HELP a_total x\na_total 1\n", "sample before TYPE"},
		{"sample outside family", "a_total 1\n", "sample outside any family"},
		{"family reopened", "# HELP a_total x\n# TYPE a_total counter\n# HELP b_total y\n# TYPE b_total counter\n# HELP a_total x\n# TYPE a_total counter\n", "reopened"},
		{"interleaved sample", "# HELP a_total x\n# TYPE a_total counter\nb_total 1\n", "interleaved"},
		{"bad metric name", "# HELP 0bad x\n# TYPE 0bad counter\n", "invalid metric name"},
		{"bad label name", "# HELP a_total x\n# TYPE a_total counter\na_total{0k=\"v\"} 1\n", "bad label"},
		{"unquoted label value", "# HELP a_total x\n# TYPE a_total counter\na_total{k=v} 1\n", "not a quoted string"},
		{"duplicate label", "# HELP a_total x\n# TYPE a_total counter\na_total{k=\"a\",k=\"b\"} 1\n", "duplicate label"},
		{"unterminated labels", "# HELP a_total x\n# TYPE a_total counter\na_total{k=\"a\" 1\n", "unterminated label set"},
		{"unbalanced quotes", "# HELP a_total x\n# TYPE a_total counter\na_total{k=\"a} 1\n", "unbalanced quotes"},
		{"bad value", "# HELP a_total x\n# TYPE a_total counter\na_total pizza\n", "value"},
		{"trailing help", "# HELP a_total x\n", "trailing HELP"},
		{"stray comment", "# Hm\n", "unexpected comment"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseProm(strings.NewReader(tc.doc))
			if err == nil {
				t.Fatalf("document accepted:\n%s", tc.doc)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestHistogramsRejectBrokenLadders(t *testing.T) {
	mk := func(body string) *PromFamily {
		return parsePromStrict(t, "# HELP h_us x\n# TYPE h_us histogram\n"+body)[0]
	}
	for _, tc := range []struct{ name, body, want string }{
		{"non-increasing bounds", "h_us_bucket{le=\"3\"} 1\nh_us_bucket{le=\"1\"} 2\nh_us_bucket{le=\"+Inf\"} 2\nh_us_sum 4\nh_us_count 2\n", "not increasing"},
		{"non-cumulative counts", "h_us_bucket{le=\"1\"} 3\nh_us_bucket{le=\"+Inf\"} 2\nh_us_sum 4\nh_us_count 2\n", "not cumulative"},
		{"missing +Inf", "h_us_bucket{le=\"1\"} 2\nh_us_sum 2\nh_us_count 2\n", "+Inf"},
		{"inf != count", "h_us_bucket{le=\"+Inf\"} 3\nh_us_sum 4\nh_us_count 2\n", "!= count"},
		{"bucket without le", "h_us_bucket 3\nh_us_sum 4\nh_us_count 3\n", "without le"},
		{"missing count", "h_us_bucket{le=\"+Inf\"} 3\nh_us_sum 4\n", "missing _count"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := mk(tc.body).Histograms()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want mention of %q", err, tc.want)
			}
		})
	}
}

// TestQuantileFromCumulative pins the shared reconstruction on the edge
// cases the monitor and the comparator both depend on: exact bucket
// boundaries, the empty histogram, and a ladder where only the +Inf
// bucket holds samples.
func TestQuantileFromCumulative(t *testing.T) {
	ladder := []PromBucket{{0, 2}, {1, 3}, {7, 7}, {63, 10}, {math.Inf(1), 10}}
	for _, tc := range []struct {
		q    float64
		want float64
	}{
		{0, 0},    // rank 0 lands in the {0} bucket
		{0.1, 0},  // rank 0 (floor(0.9)) still the zero bucket
		{0.25, 1}, // rank 2: third sample, first in the (0,1] bucket
		{0.5, 7},  // rank 4: inside the (1,7] bucket — exact boundary answer
		{0.7, 7},  // rank 6: last sample of the (1,7] bucket
		{0.8, 63}, // rank 7: first sample of the (7,63] bucket
		{1, 63},   // max rank: last finite bucket
		{-0.5, 0}, // clamps to 0
		{1.5, 63}, // clamps to 1
	} {
		if got := QuantileFromCumulative(ladder, 10, tc.q); got != tc.want {
			t.Errorf("q=%v: got %v, want %v", tc.q, got, tc.want)
		}
	}

	// Empty histogram: always 0, never a bucket edge.
	if got := QuantileFromCumulative(nil, 0, 0.5); got != 0 {
		t.Errorf("empty: got %v", got)
	}
	if got := QuantileFromCumulative([]PromBucket{{math.Inf(1), 0}}, 0, 0.99); got != 0 {
		t.Errorf("zero-count ladder: got %v", got)
	}

	// +Inf-only: every sample beyond the finite ladder — the honest
	// answer is +Inf, not a made-up finite bound.
	infOnly := []PromBucket{{63, 0}, {math.Inf(1), 4}}
	if got := QuantileFromCumulative(infOnly, 4, 0.5); !math.IsInf(got, 1) {
		t.Errorf("+Inf-only: got %v, want +Inf", got)
	}

	// Exact-bucket-boundary: a single fully-populated bucket answers its
	// own upper bound at every quantile.
	single := []PromBucket{{15, 5}, {math.Inf(1), 5}}
	for _, q := range []float64{0, 0.25, 0.5, 0.99, 1} {
		if got := QuantileFromCumulative(single, 5, q); got != 15 {
			t.Errorf("single bucket q=%v: got %v, want 15", q, got)
		}
	}
}

// TestQuantileMatchesSourceHistogram cross-checks the reconstruction
// against the live Histogram it mirrors: render a populated histogram
// through the Prometheus exporter, parse it back, and require the
// parsed quantile to equal the source's answer whenever the source does
// not clamp to its exact max (the one piece of state buckets cannot
// carry).
func TestQuantileMatchesSourceHistogram(t *testing.T) {
	h := NewHistogram("xcheck", "µs")
	for _, v := range []int64{0, 1, 2, 3, 5, 9, 17, 33, 70, 150, 600, 2500} {
		h.Observe(v)
	}
	tr := New(Options{Label: "xcheck"})
	tr.SlotLatency.Merge(h)

	var buf strings.Builder
	if err := tr.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed *PromHistogram
	for _, f := range parsePromStrict(t, buf.String()) {
		if f.Name == "bftkit_slot_latency_microseconds" {
			hs, err := f.Histograms()
			if err != nil {
				t.Fatal(err)
			}
			parsed = hs[0]
		}
	}
	if parsed == nil {
		t.Fatal("slot-latency family not exported")
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99} {
		src := float64(h.Quantile(q))
		got := parsed.Quantile(q)
		if src == float64(h.Max()) && got >= src {
			continue // source clamped to max; buckets can only bound it
		}
		if got != src {
			t.Errorf("q=%v: parsed %v, source %v", q, got, src)
		}
	}
}

// TestPromStrictConformance parses the complete WriteProm output — both
// a single tracer and a multi-tracer merge — under the strict parser and
// checks per-type invariants.
func TestPromStrictConformance(t *testing.T) {
	single := goldenTracer()
	other := goldenTracer()
	for name, tracers := range map[string][]*Tracer{
		"single": {single},
		"merged": {single, other, nil},
	} {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := WriteProm(&buf, tracers...); err != nil {
				t.Fatal(err)
			}
			families := parsePromStrict(t, buf.String())
			if len(families) == 0 {
				t.Fatal("no families parsed")
			}
			seenFamily := make(map[string]bool)
			for _, f := range families {
				if seenFamily[f.Name] {
					t.Fatalf("family %s declared twice", f.Name)
				}
				seenFamily[f.Name] = true
				if !strings.HasPrefix(f.Name, "bftkit_") {
					t.Errorf("family %s outside the bftkit_ namespace", f.Name)
				}
				seen := make(map[string]bool)
				for _, s := range f.Samples {
					if key := s.SeriesKey(); seen[key] {
						t.Errorf("duplicate series %s", key)
					} else {
						seen[key] = true
					}
					if s.Value < 0 {
						t.Errorf("negative value on %s: %v", s.Name, s.Value)
					}
				}
				switch f.Type {
				case "counter":
					for _, s := range f.Samples {
						if !strings.HasSuffix(f.Name, "_total") {
							t.Errorf("counter %s not *_total", f.Name)
						}
						if s.Name != f.Name {
							t.Errorf("counter sample %s under family %s", s.Name, f.Name)
						}
					}
				case "gauge":
					for _, s := range f.Samples {
						if strings.HasSuffix(f.Name, "_total") {
							t.Errorf("gauge %s must not be *_total", f.Name)
						}
						if s.Name != f.Name {
							t.Errorf("gauge sample %s under family %s", s.Name, f.Name)
						}
					}
				case "histogram":
					checkHistogramFamily(t, f)
				default:
					t.Errorf("unexpected family type %s for %s", f.Type, f.Name)
				}
			}
			// The full metric surface must be present even when empty.
			for _, want := range []string{
				"bftkit_build_info", "bftkit_node_start_time_seconds",
				"bftkit_phase_msgs_sent_total", "bftkit_phase_msgs_recv_total",
				"bftkit_phase_bytes_sent_total", "bftkit_phase_bytes_recv_total",
				"bftkit_phase_sign_total", "bftkit_phase_verify_total",
				"bftkit_phase_mac_total", "bftkit_phase_mac_verify_total",
				"bftkit_commit_latency_microseconds", "bftkit_slot_latency_microseconds",
				"bftkit_queue_depth_msgs", "bftkit_events_dropped_total",
				"bftkit_forensics_proofs_total", "bftkit_forensics_suspicion",
			} {
				if !seenFamily[want] {
					t.Errorf("family %s missing from exposition", want)
				}
			}
		})
	}
}

func checkHistogramFamily(t *testing.T, f *PromFamily) {
	t.Helper()
	hists, err := f.Histograms()
	if err != nil {
		t.Fatalf("%s: %v", f.Name, err)
	}
	for _, h := range hists {
		if h.Count == 0 && h.Sum != 0 {
			t.Fatalf("%s: empty histogram with nonzero sum %v", f.Name, h.Sum)
		}
		last := h.Buckets[len(h.Buckets)-1]
		if !math.IsInf(last.Upper, 1) {
			t.Fatalf("%s: last bucket is %v, not +Inf", f.Name, last.Upper)
		}
	}
}
