package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faas"
)

// TestFleetSectionGolden pins the monitor experiment's rendered fleet
// section against the output the pre-engine implementation produced (a
// hand-rolled loop feeding one live Monitor from a globally time-sorted
// event list). The section must stay byte-identical now that the replay
// runs through the sharded fleet engine — and at any worker count.
func TestFleetSectionGolden(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "fleet_section.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		sum, err := replayFleet(faas.AWSPricing(), DefaultMonitorConfig().Seed, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var b strings.Builder
		renderFleetSection(&b, sum)
		if got := b.String(); got != string(golden) {
			t.Errorf("workers=%d: fleet section drifted from golden:\n--- got\n%s--- want\n%s",
				workers, got, golden)
		}
	}
}

// TestExpositionGolden pins the exact bytes of the two expositions the
// fleet-result golden does not reach: the live Monitor's, in both rows of
// the monitor experiment, and the rollout controller's. The golden was
// recorded before the exposition writers were folded into one, so any
// drift in family order, name mangling or float format fails here.
func TestExpositionGolden(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "expositions.golden"))
	if err != nil {
		t.Fatal(err)
	}
	mon := result(t, "monitor").(*MonitorResult)
	ro := result(t, "rollout").(*RolloutResult)
	var b strings.Builder
	for _, row := range mon.Rows {
		fmt.Fprintf(&b, "== monitor %s ==\n%s", row.Deployment, row.OpenMetrics)
	}
	fmt.Fprintf(&b, "== rollout ==\n%s", ro.OpenMetrics)
	if got := b.String(); got != string(golden) {
		t.Errorf("expositions drifted from golden:\n--- got\n%s--- want\n%s", got, golden)
	}
}
