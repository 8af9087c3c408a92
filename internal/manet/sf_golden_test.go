package manet

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"manetskyline/internal/telemetry"
)

// sfGoldenParams is the SF variant of the tiny deterministic golden
// scenario: same 4 static devices and seed, sampling-filter forwarding.
func sfGoldenParams() Params {
	p := goldenParams()
	p.Strategy = SamplingFilter
	return p
}

// TestSFTraceGolden pins the span JSONL of a small deterministic SF run
// byte-for-byte: the sampling round, the filter-set broadcast, and the
// survivor collection must replay identically from the seed alone.
// Regenerate with: go test ./internal/manet -run SFTraceGolden -update
func TestSFTraceGolden(t *testing.T) {
	got, out := runSpans(t, sfGoldenParams())
	checkGolden(t, "sf_small.spans.jsonl", got)

	// Seed determinism: a second run of the same params replays the exact
	// same spans (filter selection, sampling, and scheduling draw only from
	// seeded state).
	if again, _ := runSpans(t, sfGoldenParams()); !bytes.Equal(got, again) {
		t.Fatalf("two SF runs with the same seed produced different spans")
	}

	// The spans must actually narrate the SF protocol: both phases appear.
	kinds := map[string]int{}
	for _, sp := range out.Spans {
		for _, st := range sp.Stages {
			kinds[st.Kind]++
		}
	}
	for _, kind := range []string{telemetry.StageIssue, telemetry.StageSample,
		telemetry.StageFilterSet, telemetry.StageResult, telemetry.StageComplete} {
		if kinds[kind] == 0 {
			t.Errorf("SF golden spans have no %q stages", kind)
		}
	}
}

// Pinned digests of the BF golden scenarios' span JSONL. Unlike the golden
// files, these constants cannot be regenerated with -update: if SF-era
// changes ever perturb BF behavior, this test fails until the constants are
// edited deliberately. (To recompute after an intended protocol change, run
// the test and copy the digests from the failure message.)
const (
	bfGoldenTraceSHA256 = "ffd492218d66b350c299c5db0896afc2402c1214198fa4cc4ad2dbfedb17856b"
	bfFaultGoldenSHA256 = "d33b55b856a998166c814d1381a08724f73594be1ca7bfe67b6721aa4769d2b9"
)

// TestBFGoldensUnchangedBySF re-runs the two BF golden scenarios fresh and
// compares their span digests against constants pinned in source. This is
// the guard satellite of the SF work: adding a third strategy must leave
// every BF run byte-identical, and because the expectation is a source
// constant rather than a testdata file, a blanket `-update` cannot silently
// absorb a regression.
func TestBFGoldensUnchangedBySF(t *testing.T) {
	digest := func(p Params) string {
		got, _ := runSpans(t, p)
		sum := sha256.Sum256(got)
		return hex.EncodeToString(sum[:])
	}
	if got := digest(goldenParams()); got != bfGoldenTraceSHA256 {
		t.Errorf("BF small golden span digest changed:\n got %s\nwant %s", got, bfGoldenTraceSHA256)
	}
	if got := digest(faultGoldenParams()); got != bfFaultGoldenSHA256 {
		t.Errorf("BF crash+partition golden span digest changed:\n got %s\nwant %s", got, bfFaultGoldenSHA256)
	}
}
