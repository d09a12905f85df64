package main

import (
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/hash"
)

// testBin holds pintd and pintgate built from this checkout.
var testBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-bin-")
	if err != nil {
		panic(err)
	}
	for _, cmd := range []string{"pintd", "pintgate"} {
		out, err := exec.Command("go", "build", "-o", filepath.Join(dir, cmd), "repro/cmd/"+cmd).CombinedOutput()
		if err != nil {
			os.RemoveAll(dir)
			panic("building " + cmd + ": " + err.Error() + "\n" + string(out))
		}
	}
	testBin = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// short shrinks a workload to a few tens of thousands of digests while
// keeping its shape: connections, interleaving, skew and the query
// client.
func short(s spec) spec {
	if s.interleave {
		s.flows = 1024
	} else if s.hotFlows == 0 {
		s.flows = 64
	}
	s.poolPkts = min(s.poolPkts, 512)
	s.passes = min(s.passes, 2)
	s.oracleFlows = min(s.oracleFlows, 8)
	s.scoreFlows = min(s.scoreFlows, 32)
	s.idleQueries = min(s.idleQueries, 20)
	return s
}

func testEnv(t *testing.T) *env {
	return &env{bin: testBin, work: t.TempDir()}
}

// TestShortWorkloads runs each workload in short form, untraced and
// traced, and checks that every metric is emitted with its unit, that
// the answers pass the oracle, and that the per-layer replays consumed
// the workload's captured input.
func TestShortWorkloads(t *testing.T) {
	for _, full := range workloads {
		s := short(full)
		t.Run(s.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				res, err := run(testEnv(t), s, 7, 1, traced)
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if !res.correct() {
					t.Fatalf("traced=%v: %d of %d operations failed: %v", traced, res.failed, res.attempted, res.failures)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				line, err := report(io.Discard, s, res, defs)
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				var got resultLine
				if err := json.Unmarshal([]byte(line), &got); err != nil {
					t.Fatal(err)
				}
				if len(got.Metrics) != len(defs) || !got.Correct || got.Attempted < 1 {
					t.Fatalf("traced=%v: result line %s", traced, line)
				}
				for _, d := range defs {
					if m, ok := got.Metrics[d.name]; !ok || m.Unit != d.unit {
						t.Errorf("traced=%v: metric %s missing or not in %s: %+v", traced, d.name, d.unit, m)
					}
				}
				if traced {
					checkReplays(t, s, res.layers)
				}
			}
		})
	}
}

// checkReplays demands that each layer replay ran on exactly the digests
// the workload's trials sent.
func checkReplays(t *testing.T, s spec, rep *layerReport) {
	t.Helper()
	in, err := newInput(s, 7)
	if err != nil {
		t.Fatal(err)
	}
	in.encode()
	var capped, shard0 int
	for _, fr := range captured(in, false) {
		capped += len(fr)
		for _, p := range fr {
			if hash.ShardOf(uint64(p.Flow), 2) == 0 {
				shard0++
			}
		}
	}
	want := min(s.digestsPerTrial(), replayCap)
	if capped != want || rep.replayed != want || rep.appended != want {
		t.Errorf("replayed %d, appended %d digests; captured %d, want %d", rep.replayed, rep.appended, capped, want)
	}
	if rep.recorded != shard0 || shard0 == 0 {
		t.Errorf("recorded %d digests, shard 0 of the capture holds %d", rep.recorded, shard0)
	}
	if rep.stateDigests != s.digestsPerTrial() {
		t.Errorf("snapshot sink holds %d digests, a trial sends %d", rep.stateDigests, s.digestsPerTrial())
	}
	if rep.mismatches != 0 {
		t.Errorf("%d decoded digests differ from the capture", rep.mismatches)
	}
}

// TestOracleFlagsAlteredAnswer corrupts the oracle's side of the
// comparison and expects the run to fail.
func TestOracleFlagsAlteredAnswer(t *testing.T) {
	e := testEnv(t)
	e.alterOracle = true
	res, err := run(e, short(workloads[0]), 3, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.correct() || res.failed != 1 {
		t.Fatalf("altered oracle answer: %d of %d failed, want exactly 1", res.failed, res.attempted)
	}
	if !strings.Contains(strings.Join(res.failures, "\n"), "oracle: answer differs") {
		t.Fatalf("failures do not name the oracle: %v", res.failures)
	}
	want := []byte(`{"flows":[{"flow":12,"answers":[]}]}`)
	if compareAnswers(alter(want), want) == nil {
		t.Fatal("compareAnswers accepted an altered answer")
	}
}

// TestInputsFollowTheSeed checks that a seed fixes the traffic and that
// elephants keep the fixed 20:12 shard split on every seed.
func TestInputsFollowTheSeed(t *testing.T) {
	s := short(workloads[0])
	gen := func(seed uint64) *input {
		in, err := newInput(s, seed)
		if err != nil {
			t.Fatal(err)
		}
		in.encode()
		return in
	}
	a, b, c := gen(5), gen(5), gen(6)
	if !reflect.DeepEqual(a.pkts, b.pkts) || !reflect.DeepEqual(a.flows, b.flows) {
		t.Fatal("one seed produced two different inputs")
	}
	if reflect.DeepEqual(a.pkts, c.pkts) {
		t.Fatal("two seeds produced the same input")
	}
	for _, in := range []*input{a, c} {
		hot := 0
		for _, f := range in.flows {
			if hash.ShardOf(uint64(f.key), 2) == 0 {
				hot++
			}
		}
		if hot != s.hotFlows {
			t.Fatalf("seed %d: %d flows on shard 0, want %d", in.seed, hot, s.hotFlows)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the workloads and
// metrics this command emits.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name   string  `json:"name"`
			Unit   string  `json:"unit"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, perfbench has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: %+v, want %q: %q", i, w, workloads[i].name, workloads[i].why)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, perfbench emits %d+%d",
			len(doc.EndToEnd), len(doc.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range doc.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %d: %+v, want %+v", i, m, d)
		}
	}
	for i, m := range doc.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer %d: %+v, want %+v", i, m, d)
		}
	}
}
