package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// stream builds a minimal test2json stream with the given benchmark result
// lines, split across events the way test2json actually splits them (name
// fragment first, then the tab-separated measurements).
func stream(lines ...string) string {
	var b strings.Builder
	outputEvent := func(output string) {
		raw, err := json.Marshal(map[string]string{
			"Action": "output", "Package": "stablerank", "Output": output,
		})
		if err != nil {
			panic(err)
		}
		b.Write(raw)
		b.WriteByte('\n')
	}
	b.WriteString(`{"Action":"start","Package":"stablerank"}` + "\n")
	for _, l := range lines {
		name, rest, _ := strings.Cut(l, "\t")
		outputEvent(name + "  \t")
		outputEvent(rest + "\n")
	}
	b.WriteString(`{"Action":"pass","Package":"stablerank"}` + "\n")
	return b.String()
}

func write(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestParseReassemblesSplitLines(t *testing.T) {
	got, err := parse(strings.NewReader(stream(
		"BenchmarkPoolBuild/workers=1-8\t       1\t  50000000 ns/op",
		"BenchmarkFig10SV2D/n=100\t       1\t      5600 ns/op\t 0 B/op",
	)))
	if err != nil {
		t.Fatal(err)
	}
	if got["BenchmarkPoolBuild/workers=1"] != 50000000 {
		t.Errorf("pool build = %v, want 50000000 (cpu suffix stripped)", got["BenchmarkPoolBuild/workers=1"])
	}
	if got["BenchmarkFig10SV2D/n=100"] != 5600 {
		t.Errorf("sv2d = %v", got["BenchmarkFig10SV2D/n=100"])
	}
}

func TestGatePassAndFail(t *testing.T) {
	base := write(t, "base.json", stream(
		"BenchmarkPoolBuild/workers=1-8\t1\t100000000 ns/op",
		"BenchmarkVerifyBatch/batch-8\t1\t200000000 ns/op",
		"BenchmarkTiny-8\t1\t1000 ns/op",
		"BenchmarkUngated-8\t1\t100000000 ns/op",
	))

	// Within tolerance (+20%), tiny-noise and ungated regressions ignored.
	good := write(t, "good.json", stream(
		"BenchmarkPoolBuild/workers=1-8\t1\t120000000 ns/op",
		"BenchmarkVerifyBatch/batch-8\t1\t150000000 ns/op",
		"BenchmarkTiny-8\t1\t90000 ns/op",
		"BenchmarkUngated-8\t1\t900000000 ns/op",
	))
	var out, errOut strings.Builder
	code := run([]string{"-baseline", base, "-candidate", good,
		"-match", "PoolBuild|Verify|Tiny", "-threshold", "1.25"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("gate failed on a clean run (code %d):\n%s%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "noise") || !strings.Contains(out.String(), "ungated") {
		t.Errorf("expected noise and ungated rows:\n%s", out.String())
	}

	// A gated 2x regression fails.
	bad := write(t, "bad.json", stream(
		"BenchmarkPoolBuild/workers=1-8\t1\t200000000 ns/op",
		"BenchmarkVerifyBatch/batch-8\t1\t200000000 ns/op",
	))
	out.Reset()
	errOut.Reset()
	code = run([]string{"-baseline", base, "-candidate", bad,
		"-match", "PoolBuild|Verify", "-threshold", "1.25"}, &out, &errOut)
	if code != 1 {
		t.Fatalf("gate passed a 2x regression (code %d):\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSED BenchmarkPoolBuild/workers=1") {
		t.Errorf("missing regression row:\n%s", out.String())
	}
}

func TestGateReportsNewAndGone(t *testing.T) {
	base := write(t, "base.json", stream("BenchmarkOld-8\t1\t100000000 ns/op"))
	cand := write(t, "cand.json", stream("BenchmarkNew-8\t1\t100000000 ns/op"))
	var out, errOut strings.Builder
	if code := run([]string{"-baseline", base, "-candidate", cand}, &out, &errOut); code != 0 {
		t.Fatalf("disjoint sets should not fail the gate (code %d)", code)
	}
	if !strings.Contains(out.String(), "gone") || !strings.Contains(out.String(), "new") {
		t.Errorf("expected gone and new rows:\n%s", out.String())
	}
}

// TestGateFailsWhenGatedBenchmarkIsGone: a baseline benchmark matching
// -match that the candidate no longer runs fails the gate — deleting or
// renaming a gated benchmark must not silently drop its gate — while a
// vanished benchmark outside -match stays informational.
func TestGateFailsWhenGatedBenchmarkIsGone(t *testing.T) {
	base := write(t, "base.json", stream(
		"BenchmarkVerifyBatch/loop-8\t1\t300000000 ns/op",
		"BenchmarkVerifyBatch/batch-8\t1\t200000000 ns/op",
		"BenchmarkRetired-8\t1\t100000000 ns/op",
	))
	cand := write(t, "cand.json", stream(
		"BenchmarkVerifyBatch/loop-8\t1\t300000000 ns/op",
	))
	var out, errOut strings.Builder
	code := run([]string{"-baseline", base, "-candidate", cand, "-match", "VerifyBatch"}, &out, &errOut)
	if code != 1 {
		t.Fatalf("gate passed with a gated benchmark gone (code %d):\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "GONE      BenchmarkVerifyBatch/batch") {
		t.Errorf("missing GONE row for the gated benchmark:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "gone      BenchmarkRetired") {
		t.Errorf("ungated disappearance should stay an informational gone row:\n%s", out.String())
	}
	if !strings.Contains(errOut.String(), "1 gated benchmark(s) missing") {
		t.Errorf("stderr does not name the missing gated benchmark count:\n%s", errOut.String())
	}
}

// TestCandidateOnlyFamilyIsReported pins the contract for brand-new
// benchmark families: a family present only in the candidate stream (the
// usual state of a benchmark added in the same PR that should start gating
// next PR) must surface as an explicit "new" row naming the benchmark — not
// be silently dropped just because the baseline has nothing to compare it
// against — and must not fail the gate, even when -match selects it.
func TestCandidateOnlyFamilyIsReported(t *testing.T) {
	base := write(t, "base.json", stream(
		"BenchmarkPoolBuild/workers=1-8\t1\t100000000 ns/op",
	))
	cand := write(t, "cand.json", stream(
		"BenchmarkPoolBuild/workers=1-8\t1\t100000000 ns/op",
		"BenchmarkDeltaApply/batch=16-8\t1\t900000000 ns/op",
		"BenchmarkDeltaApply/batch=256-8\t1\t900000000 ns/op",
	))
	var out, errOut strings.Builder
	code := run([]string{"-baseline", base, "-candidate", cand,
		"-match", "PoolBuild|DeltaApply", "-threshold", "1.25"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("candidate-only family failed the gate (code %d):\n%s%s", code, out.String(), errOut.String())
	}
	for _, name := range []string{"BenchmarkDeltaApply/batch=16", "BenchmarkDeltaApply/batch=256"} {
		if !strings.Contains(out.String(), "new       "+name) {
			t.Errorf("candidate-only benchmark %s not reported as new:\n%s", name, out.String())
		}
	}
}

// TestParseTakesMinimumOfRepeats: a stream captured with -count N repeats
// each benchmark; parse must keep the fastest sample, the best estimate of
// true cost under scheduler noise.
func TestParseTakesMinimumOfRepeats(t *testing.T) {
	got, err := parse(strings.NewReader(stream(
		"BenchmarkPoolBuild/workers=1-8\t1\t120000000 ns/op",
		"BenchmarkPoolBuild/workers=1-8\t1\t100000000 ns/op",
		"BenchmarkPoolBuild/workers=1-8\t1\t150000000 ns/op",
	)))
	if err != nil {
		t.Fatal(err)
	}
	if got["BenchmarkPoolBuild/workers=1"] != 100000000 {
		t.Errorf("repeated benchmark = %v, want the 100000000 minimum", got["BenchmarkPoolBuild/workers=1"])
	}
}

func TestGateUsageErrors(t *testing.T) {
	var out, errOut strings.Builder
	if code := run(nil, &out, &errOut); code != 2 {
		t.Errorf("missing flags: code %d, want 2", code)
	}
	if code := run([]string{"-baseline", "a", "-candidate", "b", "-match", "("}, &out, &errOut); code != 2 {
		t.Errorf("bad regexp: code %d, want 2", code)
	}
	if code := run([]string{"-baseline", "/nonexistent", "-candidate", "/nonexistent"}, &out, &errOut); code != 2 {
		t.Errorf("missing file: code %d, want 2", code)
	}
}
