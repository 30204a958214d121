package cli

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/explore"
	"repro/internal/litmus"
)

// TestMetricsLineGauges: the -metrics summary carries every counter
// and then every gauge of the registry, in schema order, so a search's
// frontier_peak and seen_bytes are readable from any CLI run.
func TestMetricsLineGauges(t *testing.T) {
	tel := Telemetry{Summary: true}
	if err := tel.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() { tel.Summary = false; tel.Stop() }()
	opts := explore.Options{Workers: 1}
	tel.Apply(&opts)
	litmus.Suite()[0].Run(opts)

	snap := tel.Registry().Snapshot()
	line := metricsLine(snap)
	if !strings.HasPrefix(line, "metrics: expansions=") {
		t.Fatalf("summary does not start with the first counter: %q", line)
	}
	fields := strings.Fields(strings.TrimPrefix(line, "metrics:"))
	names := append(append([]string(nil), snap.CounterNames...), snap.GaugeNames...)
	if len(fields) != len(names) {
		t.Fatalf("summary has %d fields, want %d counters and gauges: %q", len(fields), len(names), line)
	}
	for i, name := range names {
		if !strings.HasPrefix(fields[i], name+"=") {
			t.Fatalf("field %d is %q, want %s=…", i, fields[i], name)
		}
	}
	for _, g := range []string{"frontier_peak", "seen_bytes"} {
		v := snap.Gauge(g)
		if v <= 0 {
			t.Errorf("gauge %s = %d after a search, want > 0", g, v)
		}
		if want := fmt.Sprintf(" %s=%d", g, v); !strings.Contains(line, want) {
			t.Errorf("summary lacks %q: %q", want, line)
		}
	}
}
