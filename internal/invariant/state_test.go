package invariant

import (
	"errors"
	"testing"

	"lightpath/internal/snapshot"
)

func TestAuditorStateRoundTrip(t *testing.T) {
	orig := &Auditor{
		mutations: 17,
		audits:    5,
		count:     2,
		recorded: []Violation{
			{Invariant: "fiber-occupancy", Op: "establish", Detail: "row 3 over"},
			{Invariant: "endpoint-width", Op: "release", Detail: "chip 9 negative"},
		},
	}
	var e snapshot.Encoder
	orig.EncodeState(&e)

	restored := &Auditor{}
	d := snapshot.NewDecoder(e.Bytes())
	if err := restored.RestoreState(d); err != nil {
		t.Fatal(err)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	if restored.Mutations() != 17 || restored.Audits() != 5 || restored.Count() != 2 {
		t.Fatalf("counters = %d/%d/%d, want 17/5/2",
			restored.Mutations(), restored.Audits(), restored.Count())
	}
	vs := restored.Violations()
	if len(vs) != 2 || vs[0] != orig.recorded[0] || vs[1] != orig.recorded[1] {
		t.Fatalf("violations = %+v", vs)
	}
	// Err() must render identically on both sides.
	if restored.Err().Error() != orig.Err().Error() {
		t.Fatalf("Err diverges: %v vs %v", restored.Err(), orig.Err())
	}
}

// TestAuditorRestoreRejectsCountWithoutRecord feeds RestoreState
// snapshots the program never writes: each must fail as
// ErrCorruptSnapshot rather than leave an auditor whose Err() panics
// or whose counters run backwards.
func TestAuditorRestoreRejectsCountWithoutRecord(t *testing.T) {
	for _, tc := range []struct {
		name                     string
		mutations, audits, count int
		recorded                 int
	}{
		{"count without record", 1, 1, 3, 0},
		{"negative count, empty record", 1, 1, -1, 0},
		{"negative count with a record", 1, 1, -1, 1},
		{"negative mutations", -1, 0, 0, 0},
		{"negative audits", 5, -2, 0, 0},
		{"record longer than count", 4, 2, 1, 2},
		{"record longer than the cap", 900, 90, maxRecorded + 10, maxRecorded + 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var e snapshot.Encoder
			e.Int(tc.mutations)
			e.Int(tc.audits)
			e.Int(tc.count)
			e.Len(tc.recorded)
			for i := 0; i < tc.recorded; i++ {
				e.String("circuit-disjointness")
				e.String("establish")
				e.String("circuits 1 and 2 share a bus segment or fiber")
			}
			d := &Auditor{}
			err := d.RestoreState(snapshot.NewDecoder(e.Bytes()))
			if !errors.Is(err, snapshot.ErrCorruptSnapshot) {
				t.Fatalf("err = %v, want ErrCorruptSnapshot", err)
			}
		})
	}
}
