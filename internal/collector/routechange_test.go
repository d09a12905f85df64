package collector

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestPathGrowthKeepsServing streams, over loopback, a flow whose path
// gets longer mid-stream (a route change onto a longer path, §7): its
// first packets report PathLen 2, the rest 5. The collector must record
// the new hops instead of crashing its shard worker, keep ingesting
// other flows, and keep answering /snapshot with all five hops.
func TestPathGrowthKeepsServing(t *testing.T) {
	tb := mustTestbench(t, 23)
	sink, srv := newServedSink(t, tb, 2)
	fx, err := Connect(tb.Engine, 1, "route-change", WithAddrs(srv.Addr().String()))
	if err != nil {
		t.Fatal(err)
	}
	grower := tb.FlowBatch(1, 0, 600, nil, nil)
	for i := range grower[:200] {
		grower[i].PathLen = 2
	}
	if err := fx.Send(grower); err != nil {
		t.Fatal(err)
	}
	if err := fx.Send(tb.FlowBatch(1, 1, 300, nil, nil)); err != nil {
		t.Fatal(err)
	}
	if err := fx.Close(); err != nil {
		t.Fatal(err)
	}
	waitForPackets(t, srv, 900)
	srv.ingestGate.Lock()
	sink.Flush()
	sink.Barrier()
	srv.ingestGate.Unlock()

	web := httptest.NewServer(srv.Handler())
	defer web.Close()
	resp, err := http.Get(web.URL + "/snapshot?flow=" + jsonNumber(uint64(tb.FlowKeyFor(1, 0))) +
		"&flow=" + jsonNumber(uint64(tb.FlowKeyFor(1, 1))))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/snapshot: %d: %s", resp.StatusCode, body)
	}
	var snap struct {
		Flows []FlowAnswers `json:"flows"`
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/snapshot body: %v: %s", err, body)
	}
	if len(snap.Flows) != 2 {
		t.Fatalf("/snapshot answered %d flows, want 2: %s", len(snap.Flows), body)
	}
	for _, fa := range snap.Flows {
		if !fa.Tracked {
			t.Fatalf("flow %d not tracked: %s", fa.Flow, body)
		}
		for _, a := range fa.Answers {
			if a.Query == tb.LatQ.Name() && len(a.Hops) != tb.K {
				t.Fatalf("flow %d: latency answered for %d hops, want %d: %s", fa.Flow, len(a.Hops), tb.K, body)
			}
		}
	}
	shutdownServer(t, srv)
}
