package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"

	"repro/internal/collector"
	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/segstore"
	"repro/internal/wire"
)

// replayCap bounds how many captured digests the single-layer replays
// push through marshal, decode, record and append.
const replayCap = 1 << 20

// layerReport is what the per-layer replays measured, per digest unless
// the name says otherwise.
type layerReport struct {
	marshalNs, decodeNs, recordNs, appendNs float64
	syncMs, snapshotMs, mergeMs, answersUs  float64
	logBytesPerPkt                          float64
	// replayed went through marshal and decode, recorded through
	// record, appended through the segment log, and stateDigests into
	// the sink the snapshot timings read.
	replayed, recorded, appended, stateDigests int
	// mismatches counts decoded digests that differ from the captured
	// ones.
	mismatches int
}

// captured returns the frames one trial sends, in the order they reach
// the collector when the connections take turns, up to replayCap
// digests (the whole trial when all is true).
func captured(in *input, all bool) [][]core.PacketDigest {
	var out [][]core.PacketDigest
	n := 0
	for p := 0; p < in.spec.passes; p++ {
		for fi := 0; ; fi++ {
			more := false
			for c := range in.frames {
				if fi >= len(in.frames[c]) {
					continue
				}
				more = true
				if !all && n >= replayCap {
					return out
				}
				out = append(out, in.frames[c][fi])
				n += len(in.frames[c][fi])
			}
			if !more {
				break
			}
		}
	}
	return out
}

// replayLayers pushes the workload's captured digests through each
// layer's public function inside this process, one layer at a time, and
// times every call as a span.
func replayLayers(e *env, in *input, tr *tracer) (*layerReport, error) {
	root, rootStart := tr.begin()
	defer tr.end(root, 0, "replay", rootStart, 0)
	rep := &layerReport{}
	frames := captured(in, false)

	// wire: marshal every frame, then decode the payloads into a 2-shard
	// stage, as a session does.
	payloads := make([][]byte, len(frames))
	var scratch []byte
	for i, fr := range frames {
		id, st := tr.begin()
		frame, err := wire.AppendMarshalFrame(scratch[:0], fr)
		tr.end(id, root, "replay.marshal", st, len(fr))
		if err != nil {
			return nil, err
		}
		payloads[i] = append([]byte(nil), frame[wire.FrameHeaderLen:]...)
		scratch = frame
		rep.replayed += len(fr)
	}
	sink, err := pipeline.NewSink(in.tb.Engine, pipeline.Config{Shards: 2, Base: in.tb.Base})
	if err != nil {
		return nil, err
	}
	stage := sink.NewStage()
	var shard0 []core.PacketDigest
	var chunks [][]core.PacketDigest
	for i, p := range payloads {
		bufs := stage.Buffers()
		id, st := tr.begin()
		n, err := wire.AppendUnmarshalSharded(bufs, p)
		tr.end(id, root, "replay.decode", st, n)
		if err != nil {
			sink.Close()
			return nil, err
		}
		rep.mismatches += mismatches(frames[i], bufs)
		shard0 = append(shard0, bufs[0]...)
		for _, b := range bufs {
			if len(b) > 0 {
				chunks = append(chunks, append([]core.PacketDigest(nil), b...))
			}
		}
		stage.Reset()
	}
	if err := sink.Close(); err != nil {
		return nil, err
	}

	// core: one shard's decoded digests through a fresh Recording, in the
	// sink's dispatch batches, on one goroutine.
	rec, err := core.NewRecordingSeeded(in.tb.Engine, 0, in.tb.Base)
	if err != nil {
		return nil, err
	}
	for off := 0; off < len(shard0); off += frameBatch {
		b := shard0[off:min(off+frameBatch, len(shard0))]
		id, st := tr.begin()
		err := rec.RecordBatch(b)
		tr.end(id, root, "replay.record", st, len(b))
		if err != nil {
			return nil, err
		}
		rep.recorded += len(b)
	}

	// segstore: the per-shard chunks a durable sink logs, appended to a
	// fresh store on the benchmark's disk, with a Sync after every eighth.
	if err := replayStore(e, tr, root, chunks, rep); err != nil {
		return nil, err
	}

	// pipeline: a 2-shard sink fed the whole trial, then snapshotted and
	// merged the way pintd's /snapshot does, and answered for one flow.
	if err := replaySnapshot(in, tr, root, rep); err != nil {
		return nil, err
	}
	self := tr.selfTimes()
	perPkt := func(name string) float64 {
		t := self[name]
		if t == nil || t.pkts == 0 {
			return math.NaN()
		}
		return float64(t.self) / float64(t.pkts)
	}
	rep.marshalNs, rep.decodeNs = perPkt("replay.marshal"), perPkt("replay.decode")
	rep.recordNs, rep.appendNs = perPkt("replay.record"), perPkt("replay.append")
	rep.syncMs = median(tr.durations("replay.sync"))
	rep.snapshotMs = median(tr.durations("replay.snapshot"))
	rep.mergeMs = median(tr.durations("replay.merge"))
	rep.answersUs = median(tr.durations("replay.answers")) * 1e3
	return rep, nil
}

// mismatches counts decoded digests that differ from the frame they came
// from (the encoder's caches aside).
func mismatches(frame []core.PacketDigest, bufs [][]core.PacketDigest) int {
	decoded := map[[2]uint64]core.PacketDigest{}
	for _, b := range bufs {
		for _, p := range b {
			decoded[[2]uint64{uint64(p.Flow), p.PktID}] = p
		}
	}
	bad := 0
	for _, p := range frame {
		d, ok := decoded[[2]uint64{uint64(p.Flow), p.PktID}]
		if !ok || d.Digest != p.Digest || d.PathLen != p.PathLen {
			bad++
		}
	}
	return bad
}

func replayStore(e *env, tr *tracer, root int64, chunks [][]core.PacketDigest, rep *layerReport) error {
	dir := filepath.Join(e.work, "replay-store")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, _, err := segstore.Open(dir, segstore.Options{})
	if err != nil {
		return err
	}
	every := max(1, len(chunks)/8)
	for i, c := range chunks {
		id, st := tr.begin()
		err := store.AppendDigests(c)
		tr.end(id, root, "replay.append", st, len(c))
		if err != nil {
			store.Close()
			return err
		}
		rep.appended += len(c)
		if (i+1)%every == 0 {
			id, st := tr.begin()
			err := store.Sync()
			tr.end(id, root, "replay.sync", st, 0)
			if err != nil {
				store.Close()
				return err
			}
		}
	}
	if err := store.Close(); err != nil {
		return err
	}
	n, err := dirBytes(dir)
	if err != nil {
		return err
	}
	rep.logBytesPerPkt = float64(n) / float64(max(1, rep.appended))
	return nil
}

// snapshotRepeats is how many times the snapshot and merge are timed.
const snapshotRepeats = 5

func replaySnapshot(in *input, tr *tracer, root int64, rep *layerReport) error {
	sink, err := pipeline.NewSink(in.tb.Engine, pipeline.Config{Shards: 2, Base: in.tb.Base})
	if err != nil {
		return err
	}
	for _, fr := range captured(in, true) {
		sink.Ingest(fr)
		rep.stateDigests += len(fr)
	}
	sink.Flush()
	sink.Barrier()
	var merged *core.Recording
	for i := 0; i < snapshotRepeats; i++ {
		id, st := tr.begin()
		snap := sink.Snapshot()
		tr.end(id, root, "replay.snapshot", st, 0)
		id, st = tr.begin()
		merged, err = snap.Merged()
		tr.end(id, root, "replay.merge", st, 0)
		if err != nil {
			sink.Close()
			return err
		}
	}
	if err := sink.Close(); err != nil {
		return err
	}
	for _, i := range in.sample(16, 0xA5) {
		keys := []core.FlowKey{in.flows[i].key}
		id, st := tr.begin()
		ans := collector.Answers(merged, in.tb.Queries(), keys)
		tr.end(id, root, "replay.answers", st, 0)
		if len(ans) != 1 || !ans[0].Tracked {
			return fmt.Errorf("replayed sink does not track flow %d", keys[0])
		}
	}
	return nil
}
