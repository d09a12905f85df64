package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/collector"
	"repro/internal/core"
	"repro/internal/sketch"
)

// oracleAnswers replays the listed flows' streams, serially and in
// process, into a fresh Recording seeded like pintd's sink, and renders
// the answers exactly as pintd's /snapshot does. A flow's answers depend
// only on its own stream, so a sample of flows is enough.
func oracleAnswers(in *input, idx []int) ([]byte, error) {
	rec, err := core.NewRecordingSeeded(in.tb.Engine, 0, in.tb.Base)
	if err != nil {
		return nil, err
	}
	for _, i := range idx {
		stream := in.flowStream(i)
		// Drop the encoder's cached query-set selection: the daemon
		// recomputes it from the wire, and so does the oracle.
		for j, p := range stream {
			stream[j] = core.PacketDigest{Flow: p.Flow, PktID: p.PktID, PathLen: p.PathLen, Digest: p.Digest}
		}
		if err := rec.RecordBatch(stream); err != nil {
			return nil, err
		}
	}
	return renderAnswers(collector.Answers(rec, in.tb.Queries(), flowKeys(in, idx))), nil
}

// renderAnswers encodes answers the way collector.WriteJSON does.
func renderAnswers(answers []collector.FlowAnswers) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	enc.Encode(map[string]any{"flows": answers})
	return buf.Bytes()
}

// compareAnswers reports where got first differs from want.
func compareAnswers(got, want []byte) error {
	if bytes.Equal(got, want) {
		return nil
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(0, i-40)
	return fmt.Errorf("answer differs at byte %d of %d (want %d): got %q, want %q",
		i, len(got), len(want), got[lo:min(len(got), i+40)], want[lo:min(len(want), i+40)])
}

// alter changes one digit of a rendered answer, for the test that
// proves a wrong answer fails the run.
func alter(b []byte) []byte {
	out := append([]byte(nil), b...)
	for i := len(out) - 1; i >= 0; i-- {
		if out[i] >= '0' && out[i] <= '9' {
			out[i] = '0' + (out[i]-'0'+1)%10
			break
		}
	}
	return out
}

// accuracy scores a /snapshot body against the generated truth: the
// share of flows whose answered path is the generated one, and each
// (flow, hop)'s relative p99 latency error.
func accuracy(in *input, idx []int, body []byte) (pathOK float64, latErrs []float64, err error) {
	var got snapshotBody
	if err := json.Unmarshal(body, &got); err != nil {
		return 0, nil, err
	}
	byKey := make(map[uint64]collector.FlowAnswers, len(got.Flows))
	for _, fa := range got.Flows {
		byKey[fa.Flow] = fa
	}
	correct := 0
	for _, i := range idx {
		f := &in.flows[i]
		fa, ok := byKey[uint64(f.key)]
		if !ok {
			return 0, nil, fmt.Errorf("flow %d missing from the answer", f.key)
		}
		var path []uint64
		hopP99 := map[int]float64{}
		for _, a := range fa.Answers {
			switch a.Query {
			case in.tb.PathQ.Name():
				path = a.Path
			case in.tb.LatQ.Name():
				for _, h := range a.Hops {
					hopP99[h.Hop] = h.P99
				}
			}
		}
		if len(path) == hops {
			match := true
			for h := range path {
				match = match && path[h] == f.path[h]
			}
			if match {
				correct++
			}
		}
		truth := in.truthLatencies(i)
		for h := 0; h < hops; h++ {
			vals := make([]float64, len(truth[h]))
			for j, v := range truth[h] {
				vals[j] = float64(v)
			}
			exact := sketch.ExactQuantile(vals, 0.99)
			ans, ok := hopP99[h+1]
			if !ok {
				// A hop with no samples answered nothing: count it as
				// entirely wrong.
				latErrs = append(latErrs, 1)
				continue
			}
			latErrs = append(latErrs, math.Abs(ans-exact)/exact)
		}
	}
	return float64(correct) / float64(len(idx)), latErrs, nil
}
