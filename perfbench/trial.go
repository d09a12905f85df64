package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/collector"
	"repro/internal/core"
	"repro/internal/hash"
)

// env is where a run finds the daemon binaries and keeps its files.
type env struct {
	bin  string
	work string
	// alterOracle corrupts the in-process oracle's rendering, so a test
	// can prove that a wrong answer fails the run.
	alterOracle bool
}

// cluster is one pintd with a pintgate in front of it.
type cluster struct {
	pintd, gate *daemon
	ingest      string
	member      string
	gateURL     string
	dataDir     string
}

func startCluster(e *env, in *input, durable bool, idx int) (*cluster, error) {
	c := &cluster{}
	args := []string{"-listen", "127.0.0.1:0", "-http", "127.0.0.1:0", "-shards", "2", "-pprof",
		"-seed", strconv.FormatUint(in.seed, 10), "-k", strconv.Itoa(hops), "-grace", "10s"}
	if durable {
		c.dataDir = filepath.Join(e.work, fmt.Sprintf("data-%d", idx))
		if err := os.RemoveAll(c.dataDir); err != nil {
			return nil, err
		}
		args = append(args, "-data-dir", c.dataDir)
	}
	d, addrs, err := startDaemon(filepath.Join(e.bin, "pintd"), args, "pintd: listening on ", "pintd: http on ")
	if err != nil {
		return nil, err
	}
	c.pintd, c.ingest, c.member = d, addrs[0], "http://"+addrs[1]
	if err := waitHealthy(c.member, fmt.Sprintf("0x%016x", in.tb.Engine.PlanHash())); err != nil {
		c.stop()
		return nil, err
	}
	g, gaddrs, err := startDaemon(filepath.Join(e.bin, "pintgate"), []string{"-http", "127.0.0.1:0", "-nodes", addrs[1]},
		"pintgate: serving on ")
	if err != nil {
		c.stop()
		return nil, err
	}
	c.gate, c.gateURL = g, "http://"+gaddrs[0]
	if err := waitHealthy(c.gateURL, ""); err != nil {
		c.stop()
		return nil, err
	}
	return c, nil
}

func (c *cluster) stop() {
	c.gate.stop()
	c.pintd.stop()
	if c.dataDir != "" {
		os.RemoveAll(c.dataDir)
	}
}

func (c *cluster) cpu() (time.Duration, error) {
	var total time.Duration
	for _, d := range []*daemon{c.pintd, c.gate} {
		t, err := cpuTime(d.pid())
		if err != nil {
			return 0, err
		}
		total += t
	}
	return total, nil
}

// trialOpts picks what one trial does beyond the workload's traffic.
type trialOpts struct {
	traced  bool
	durable bool
	// warmup trials count for correctness but not for timing.
	warmup bool
	// checkOracle replays the oracle flows in process; later trials
	// compare their answers with the first trial's instead.
	checkOracle bool
}

func (o trialOpts) label() string {
	var parts []string
	if o.warmup {
		parts = append(parts, "warm-up")
	}
	if o.traced {
		parts = append(parts, "traced")
	}
	if o.durable {
		parts = append(parts, "durable")
	}
	if len(parts) == 0 {
		return ""
	}
	return " (" + strings.Join(parts, ", ") + ")"
}

// trialResult is everything one trial measured.
type trialResult struct {
	opts      trialOpts
	setup     time.Duration
	wall      time.Duration
	sent      uint64
	wireBytes uint64
	daemonCPU time.Duration
	genCPU    time.Duration
	memStart  memStats
	memEnd    memStats
	// pre is /stats with every session open and flushed (traced trials
	// only); post is /stats once every digest is counted.
	pre, post collector.StatsV1
	// queries are gate query latencies in ms; window is the time the
	// query client ran.
	queries []float64
	window  time.Duration
	// pairs are gate minus member latency for back-to-back queries.
	pairs     []float64
	oracle    []byte
	scored    []byte
	dataBytes int64
	attempted int
	failed    int
	failures  []string
}

func (r *trialResult) fail(format string, args ...any) {
	r.failed++
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// runTrial sets up a fresh cluster, streams one trial's digests, checks
// the answers and tears everything down.
func runTrial(e *env, in *input, tr *tracer, o trialOpts, idx int) (*trialResult, error) {
	s := in.spec
	r := &trialResult{opts: o}
	if !o.traced {
		tr = nil
	}
	t0 := time.Now()
	in.encode()
	cl, err := startCluster(e, in, o.durable, idx)
	if err != nil {
		return nil, err
	}
	defer cl.stop()
	fes := make([]*collector.FleetExporter, s.conns)
	// The success path closes every session and checks the error; this
	// covers the error paths, where closing twice is harmless.
	defer func() {
		for _, fe := range fes {
			if fe != nil {
				fe.Close()
			}
		}
	}()
	for c := range fes {
		fes[c], err = collector.Connect(in.tb.Engine, uint64(c+1), fmt.Sprintf("perfbench-%d", c+1),
			collector.WithAddrs(cl.ingest), collector.WithFrameBatch(frameBatch))
		if err != nil {
			return nil, fmt.Errorf("handshake: %w", err)
		}
	}
	r.setup = time.Since(t0)
	r.attempted += s.conns
	if o.traced {
		if r.memStart, err = heap(cl.member); err != nil {
			return nil, err
		}
	}
	cpu0, err := cl.cpu()
	if err != nil {
		return nil, err
	}
	gen0 := selfCPU()

	trialID, trialStart := tr.begin()
	start := time.Now()
	var done atomic.Bool
	var qwg sync.WaitGroup
	if s.query {
		qwg.Add(1)
		go func() {
			defer qwg.Done()
			rng := hash.NewRNG(uint64(hash.Seed(in.seed).Derive(0x0E).Hash1(uint64(idx))))
			// At least one query, however short the trial.
			for q := 0; q == 0 || !done.Load(); q++ {
				r.query(cl, in.flows[rng.Intn(len(in.flows))].key, tr, trialID, o.traced)
			}
			r.window = time.Since(start)
		}()
	}
	errs := make([]error, s.conns)
	var wg sync.WaitGroup
	for c := range fes {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = sendConn(fes[c], in.frames[c], s.passes, tr, trialID)
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			done.Store(true)
			qwg.Wait()
			return nil, fmt.Errorf("conn %d: %w", c+1, err)
		}
	}
	if o.traced {
		// Per-connection entries vanish when a session ends, so the
		// hand-off stall counters are read before closing.
		id, st := tr.begin()
		r.pre, err = stats(cl.member)
		tr.end(id, trialID, "stats", st, 0)
		if err != nil {
			return nil, err
		}
	}
	for _, fe := range fes {
		r.sent += fe.Packets()
		r.wireBytes += fe.Bytes()
		if err := fe.Close(); err != nil {
			return nil, fmt.Errorf("closing session: %w", err)
		}
	}
	if r.post, err = waitCounted(cl.member, r.sent); err != nil {
		return nil, err
	}
	r.wall = time.Since(start)
	done.Store(true)
	qwg.Wait()
	tr.end(trialID, 0, "trial", trialStart, int(r.sent))
	gen1 := selfCPU()
	cpu1, err := cl.cpu()
	if err != nil {
		return nil, err
	}
	r.daemonCPU, r.genCPU = cpu1-cpu0, gen1-gen0
	if n := r.post.Server.Rejected + r.post.Server.ConnErrors; n > 0 {
		r.fail("%d sessions refused or dropped", n)
	}
	if r.memEnd, err = heap(cl.member); err != nil {
		return nil, err
	}
	if cl.dataDir != "" {
		if r.dataBytes, err = dirBytes(cl.dataDir); err != nil {
			return nil, err
		}
	}
	if err := r.answers(e, in, cl, o); err != nil {
		return nil, err
	}
	if !s.query {
		// Ingest-only workloads query the collector once ingest is over,
		// on the state the trial built, with nothing else running.
		rng := hash.NewRNG(uint64(hash.Seed(in.seed).Derive(0x1D).Hash1(uint64(idx))))
		qs := time.Now()
		for q := 0; q < s.idleQueries; q++ {
			r.query(cl, in.flows[rng.Intn(len(in.flows))].key, tr, 0, o.traced)
		}
		r.window = time.Since(qs)
	}
	return r, nil
}

// sendConn streams passes replays of one connection's frames, then
// flushes.
func sendConn(fe *collector.FleetExporter, frames [][]core.PacketDigest, passes int, tr *tracer, parent int64) error {
	connID, connStart := tr.begin()
	defer tr.end(connID, parent, "conn", connStart, 0)
	for p := 0; p < passes; p++ {
		for _, fr := range frames {
			id, st := tr.begin()
			err := fe.Send(fr)
			tr.end(id, connID, "send", st, len(fr))
			if err != nil {
				return err
			}
		}
	}
	id, st := tr.begin()
	err := fe.Flush()
	tr.end(id, connID, "flush", st, 0)
	return err
}

// waitCounted polls /stats until every sent digest is counted and no
// session is active.
func waitCounted(member string, sent uint64) (collector.StatsV1, error) {
	deadline := time.Now().Add(60 * time.Second)
	for {
		doc, err := stats(member)
		if err != nil {
			return doc, err
		}
		if doc.Server.Packets > sent {
			return doc, fmt.Errorf("pintd counted %d digests, only %d were sent", doc.Server.Packets, sent)
		}
		if doc.Server.Packets == sent && doc.Server.Active == 0 {
			return doc, nil
		}
		if time.Now().After(deadline) {
			return doc, fmt.Errorf("pintd counted %d of %d digests (%d sessions active) after 60s",
				doc.Server.Packets, sent, doc.Server.Active)
		}
		time.Sleep(time.Millisecond)
	}
}

// snapshotBody is the decoded form of a /snapshot answer.
type snapshotBody struct {
	Flows []collector.FlowAnswers `json:"flows"`
}

func snapshotURL(base string, keys []core.FlowKey) string {
	var b strings.Builder
	b.WriteString(base + "/snapshot")
	for i, k := range keys {
		if i == 0 {
			b.WriteByte('?')
		} else {
			b.WriteByte('&')
		}
		b.WriteString("flow=" + strconv.FormatUint(uint64(k), 10))
	}
	return b.String()
}

// query asks the gate for one flow and records its latency; traced
// trials follow it with the same query sent to pintd directly.
func (r *trialResult) query(cl *cluster, key core.FlowKey, tr *tracer, parent int64, paired bool) {
	gate, ok := r.timedQuery(cl.gateURL, key, tr, parent, "query.gate")
	if ok {
		r.queries = append(r.queries, gate)
	}
	if paired {
		if member, ok2 := r.timedQuery(cl.member, key, tr, parent, "query.member"); ok && ok2 {
			r.pairs = append(r.pairs, gate-member)
		}
	}
}

func (r *trialResult) timedQuery(base string, key core.FlowKey, tr *tracer, parent int64, name string) (float64, bool) {
	r.attempted++
	id, st := tr.begin()
	t := time.Now()
	body, hdr, err := get(snapshotURL(base, []core.FlowKey{key}))
	ms := float64(time.Since(t)) / 1e6
	tr.end(id, parent, name, st, 0)
	if err != nil {
		r.fail("%s flow %d: %v", name, key, err)
		return 0, false
	}
	if p := hdr.Get(collector.PartialHeader); p != "" {
		r.fail("%s flow %d: partial answer (%s parts missing)", name, key, p)
		return 0, false
	}
	var got snapshotBody
	if err := json.Unmarshal(body, &got); err != nil || len(got.Flows) != 1 || got.Flows[0].Flow != uint64(key) {
		r.fail("%s flow %d: malformed answer %.200q", name, key, body)
		return 0, false
	}
	return ms, true
}

// answers fetches the oracle and scoring samples through the gate. The
// first trial checks the oracle sample against the in-process replay;
// every trial's bodies are later compared with the first trial's.
func (r *trialResult) answers(e *env, in *input, cl *cluster, o trialOpts) error {
	oracleIdx := in.sample(in.spec.oracleFlows, oracleSampleTag)
	scoreIdx := in.sample(in.spec.scoreFlows, scoreSampleTag)
	var err error
	if r.oracle, err = fetchAnswers(cl.gateURL, in, oracleIdx); err != nil {
		return err
	}
	if r.scored, err = fetchAnswers(cl.gateURL, in, scoreIdx); err != nil {
		return err
	}
	if o.checkOracle {
		want, err := oracleAnswers(in, oracleIdx)
		if err != nil {
			return err
		}
		if e.alterOracle {
			want = alter(want)
		}
		r.attempted++
		if err := compareAnswers(r.oracle, want); err != nil {
			r.fail("oracle: %v", err)
		}
	}
	return nil
}

// fetchAnswers asks the gate for the listed flows, in ascending key
// order.
func fetchAnswers(gate string, in *input, idx []int) ([]byte, error) {
	keys := flowKeys(in, idx)
	body, hdr, err := get(snapshotURL(gate, keys))
	if err != nil {
		return nil, err
	}
	if p := hdr.Get(collector.PartialHeader); p != "" {
		return nil, fmt.Errorf("gate answered partially (%s parts missing)", p)
	}
	return body, nil
}

func flowKeys(in *input, idx []int) []core.FlowKey {
	keys := make([]core.FlowKey, len(idx))
	for i, f := range idx {
		keys[i] = in.flows[f].key
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
