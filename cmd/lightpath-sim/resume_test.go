package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestKillResumeCSVIdentical drives the crash-injection path the way
// an operator does, in process: run a campaign with per-trial
// checkpoints and -kill-at, then -resume it with -csv, and demand the
// CSV of the uninterrupted run byte for byte. The soak runs two trials
// so their checkpoint files are written concurrently through the
// shared trial runner.
func TestKillResumeCSVIdentical(t *testing.T) {
	for _, tc := range []struct {
		cmd, trials, every, killAt string
		slow                       bool
	}{
		{"soak", "2", "50", "160", false},
		{"controller", "1", "4096", "100000", true},
	} {
		t.Run(tc.cmd, func(t *testing.T) {
			if tc.slow && (testing.Short() || raceEnabled) {
				// A controller trial is seconds long (tens under -race);
				// loadgen's own kill/resume tests cover it there.
				t.Skip("full controller trial in -short or -race mode")
			}
			base := []string{tc.cmd, "-trials", tc.trials}
			csv := func(dir string) string {
				t.Helper()
				data, err := os.ReadFile(filepath.Join(dir, tc.cmd+".csv"))
				if err != nil {
					t.Fatal(err)
				}
				return string(data)
			}

			whole := t.TempDir()
			var buf bytes.Buffer
			if err := run(append(base, "-csv", whole), &buf); err != nil {
				t.Fatal(err)
			}
			ck := filepath.Join(t.TempDir(), "ck")
			buf.Reset()
			if err := run(append(base, "-checkpoint", ck, "-ckpt-interval", tc.every, "-kill-at", tc.killAt), &buf); err != nil {
				t.Fatalf("kill run: %v", err)
			}
			if !strings.Contains(buf.String(), "trials stopped at event "+tc.killAt) {
				t.Fatalf("kill run did not report the stop:\n%s", buf.String())
			}
			resumed := t.TempDir()
			if err := run(append(base, "-checkpoint", ck, "-ckpt-interval", tc.every, "-resume", "-csv", resumed), &buf); err != nil {
				t.Fatalf("resume run: %v", err)
			}
			if got, want := csv(resumed), csv(whole); got != want {
				t.Fatalf("resumed CSV differs from the uninterrupted run:\n--- resumed ---\n%s\n--- uninterrupted ---\n%s", got, want)
			}
			// A resume really reads the checkpoints: without them it fails
			// instead of quietly starting over.
			if err := run(append(base, "-checkpoint", t.TempDir(), "-resume"), &buf); err == nil {
				t.Fatal("resume from an empty checkpoint dir succeeded")
			}
		})
	}
}
