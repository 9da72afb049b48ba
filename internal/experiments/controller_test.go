package experiments

import (
	"testing"

	"lightpath/internal/ctrl/loadgen"
)

// TestControllerEveryRungFires runs one pinned controller campaign
// trial (seed 7, trial 0) and checks that each rung of the robustness
// ladder acts on it: queue shedding, the deadline check, the breaker
// (rejections and trips), backoff retries and reroute on fault. Each
// rung was kept because turning it off moves the campaign's outcomes;
// a rung that stops firing here no longer earns its code.
func TestControllerEveryRungFires(t *testing.T) {
	res, err := loadgen.RunCheckpointed(controllerTrialConfig(trialSeed(7, 0)), loadgen.CheckpointOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, rung := range []struct {
		name  string
		count int
	}{
		{"queue shedding", res.Shed},
		{"deadline", res.DeadlineMiss},
		{"breaker rejections", res.BreakerRejects},
		{"breaker trips", res.BreakerTrips},
		{"backoff retries", res.Retries},
		{"reroute on fault", res.Reroutes},
	} {
		if rung.count <= 0 {
			t.Errorf("%s never fired: count %d", rung.name, rung.count)
		}
	}
}
