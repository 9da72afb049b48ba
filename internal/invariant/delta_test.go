package invariant_test

import (
	"reflect"
	"testing"

	"lightpath/internal/invariant"
	"lightpath/internal/rng"
	"lightpath/internal/route"
	"lightpath/internal/snapshot"
)

// trustedOp reports whether a delta audit may follow op: the
// mutations that only add or remove circuits.
func trustedOp(op string) bool { return op == "establish" || op == "commit" || op == "release" }

// TestDeltaMatchesFullAudit holds a Sampled auditor's delta audits to
// full audits of the same states. Seeded establish/release/fault
// streams run through a Sampled auditor while a second auditor runs a
// full pass at every sampled audit point; the two must report
// deep-equal violations, so a delta never reports what the full
// registry would not. Once per stream, at a delta audit point past a
// seeded mutation, one sabotage (each in turn, stream by stream) is
// planted on the circuits added since the previous audit point; the
// delta must then report exactly what the full pass does.
func TestDeltaMatchesFullAudit(t *testing.T) {
	t.Cleanup(invariant.ResetGlobal)
	var audits, cleanDeltas, planted, caught int
	reporting := map[string]int{}
	for seed := uint64(1); seed <= 120; seed++ {
		r := rng.New(seed).Split("delta")
		a, step := randomStream(t, seed, [3]int{30, 20, 1})
		aud := invariant.Attach(a, invariant.Sampled)
		ref := invariant.Attach(a, invariant.Off)
		plantFrom := 3*invariant.DefaultStride + r.Intn(160)
		lastID, done := -1, false
		a.SetAuditHook(func(op string) {
			m := aud.Mutations() + 1
			auditing := m%invariant.DefaultStride == 0
			sabotaged := false
			if auditing && m >= plantFrom && aud.DeltaNext() && trustedOp(op) {
				var added []*route.Circuit
				for _, c := range a.Circuits() {
					if c.ID > lastID {
						added = append(added, c)
					}
				}
				if len(added) > 0 {
					sb := sabotages[int(seed)%len(sabotages)]
					sb.apply(r.Split(sb.name), a, added)
					sabotaged = true
				}
			}
			full := aud.FullPasses()
			got := aud.MutatedReport(op)
			if !auditing {
				return
			}
			audits++
			want := ref.Audit(op)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d mutation %d (sabotaged %v): sampled audit\n got %v\nwant %v", seed, m, sabotaged, got, want)
			}
			if !sabotaged && len(want) > 0 {
				t.Fatalf("seed %d mutation %d: unsabotaged stream reports %v", seed, m, want)
			}
			if aud.FullPasses() == full {
				cleanDeltas++
			}
			if cs := a.Circuits(); len(cs) > 0 {
				lastID = cs[len(cs)-1].ID
			}
			if sabotaged {
				planted++
				if len(want) > 0 {
					caught++
				}
				for _, v := range want {
					reporting[v.Invariant]++
				}
				done = true
			}
		})
		for i := 0; i < 2000 && !done; i++ {
			step(i)
		}
	}
	t.Logf("%d sampled audits compared, %d clean deltas; %d sabotaged delta points, %d reporting; reports per invariant: %v",
		audits, cleanDeltas, planted, caught, reporting)
	if cleanDeltas < 400 || planted < 100 || caught < 80 {
		t.Fatalf("coverage too thin: %d clean deltas of %d audits (want 400), %d sabotaged delta points (want 100), %d reporting (want 80)",
			cleanDeltas, audits, planted, caught)
	}
	for _, inv := range invariant.Registry() {
		if reporting[inv.Name] < 5 {
			t.Errorf("coverage too thin: %s reported at %d sabotaged delta points, want 5", inv.Name, reporting[inv.Name])
		}
	}
}

// TestRestoredAuditorStartsWithFullPass: the delta index is not
// checkpointed, so an auditor restored from EncodeState bytes, fresh
// or warm, makes its first sampled audit a full pass; after it, the
// resumed run counts the same audits and mutations as the
// uninterrupted one.
func TestRestoredAuditorStartsWithFullPass(t *testing.T) {
	t.Cleanup(invariant.ResetGlobal)
	const steps, killAt = 3000, 1234
	var v victim
	a, step := campaignStream(t, 3, &v)
	whole := invariant.Attach(a, invariant.Sampled)
	for i := 0; i < steps; i++ {
		step(i)
	}

	a, step = campaignStream(t, 3, &v)
	aud := invariant.Attach(a, invariant.Sampled)
	for i := 0; i < killAt; i++ {
		step(i)
	}
	if !aud.DeltaNext() {
		t.Fatal("the interrupted auditor's index is not warm")
	}
	var e snapshot.Encoder
	aud.EncodeState(&e)
	// Restoring into the warm auditor must drop its index too.
	if err := aud.RestoreState(snapshot.NewDecoder(e.Bytes())); err != nil {
		t.Fatal(err)
	}
	if aud.DeltaNext() {
		t.Fatal("a restored auditor trusts its index")
	}
	resumed := invariant.Attach(a, invariant.Sampled)
	if err := resumed.RestoreState(snapshot.NewDecoder(e.Bytes())); err != nil {
		t.Fatal(err)
	}
	audits, i := resumed.Audits(), killAt
	for ; resumed.Audits() == audits; i++ {
		step(i)
	}
	if resumed.FullPasses() != 1 {
		t.Fatalf("the restored auditor's first sampled audit ran %d full passes, want 1", resumed.FullPasses())
	}
	for ; i < steps; i++ {
		step(i)
	}
	if resumed.Audits() != whole.Audits() || resumed.Mutations() != whole.Mutations() || resumed.Count() != 0 || whole.Count() != 0 {
		t.Fatalf("resumed run: %d audits, %d mutations, %d violations; uninterrupted: %d, %d, %d",
			resumed.Audits(), resumed.Mutations(), resumed.Count(), whole.Audits(), whole.Mutations(), whole.Count())
	}
	if resumed.Audits() == resumed.FullPasses() {
		t.Fatal("the resumed auditor ran no delta audits")
	}
}
