package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/iofault"
	"repro/internal/replica"
	"repro/internal/vec"
	"repro/internal/wal"
)

// fakeFollower supplies deterministic replication stats, standing in for
// *replica.Follower behind the FollowerStats seam.
type fakeFollower struct{ st replica.Stats }

func (f *fakeFollower) Stats() replica.Stats { return f.st }

// A read-only server must 403 every mutation endpoint — a misdirected write
// applied on a follower would fork it from its primary forever — while
// queries keep working.
func TestReadOnlyGate(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{ReadOnly: true})

	for _, ep := range []struct {
		path string
		body interface{}
	}{
		{"/v1/insert", queryRequest{Point: vec.Point{0.5, 0.5, 0.5}}},
		{"/v1/insert/batch", batchRequest{Points: [][]float64{{0.4, 0.4, 0.4}}}},
		{"/v1/delete", map[string]int{"id": 0}},
	} {
		resp, body := postJSON(t, ts.Client(), ts.URL+ep.path, ep.body)
		if resp.StatusCode != http.StatusForbidden {
			t.Fatalf("%s on read-only server: status %d, want 403 (%s)", ep.path, resp.StatusCode, body)
		}
		if !strings.Contains(string(body), "read-only") {
			t.Fatalf("%s 403 body does not say why: %s", ep.path, body)
		}
	}

	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/nn", queryRequest{Point: vec.Point{0.5, 0.5, 0.5}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("read on read-only server: status %d (%s)", resp.StatusCode, body)
	}
}

// A primary-mode server mounts the shipping protocol under /v1/repl/ and
// reports its role (with boot id) on /healthz.
func TestReplSourceMounted(t *testing.T) {
	ix, _ := buildTestIndex(t, 60)
	m := iofault.NewMem()
	if err := ix.OpenWALs("wal", wal.Options{FS: m, Policy: wal.SyncAlways}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.CloseWALs() })
	src, err := replica.NewSource(ix, m)
	if err != nil {
		t.Fatal(err)
	}
	s := New(ix, Config{ReplSource: src})
	ts := newHTTPServer(t, s)

	resp, err := ts.Client().Get(ts.URL + "/v1/repl/segments?log=0")
	if err != nil {
		t.Fatal(err)
	}
	var info wal.ShipInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(info.Segments) == 0 {
		t.Fatalf("segment manifest: status %d, %+v", resp.StatusCode, info)
	}

	resp, err = ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status      string `json:"status"`
		Replication *struct {
			Role   string `json:"role"`
			BootID string `json:"boot_id"`
		} `json:"replication"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || health.Replication == nil ||
		health.Replication.Role != "primary" || health.Replication.BootID != src.BootID() {
		t.Fatalf("primary healthz: status %d, %+v", resp.StatusCode, health.Replication)
	}
}

func newHTTPServer(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// Lag-aware readiness: /healthz must 503 while the follower has not
// bootstrapped and while lag is over either SLO axis, and recover to 200
// the moment the follower is caught up — this is the signal the router's
// probes shed on.
func TestFollowerLagAwareHealthz(t *testing.T) {
	ix, _ := buildTestIndex(t, 60)
	ff := &fakeFollower{}
	s := New(ix, Config{
		ReadOnly:      true,
		Follower:      ff,
		LagSLORecords: 10,
		LagSLOSeconds: 5,
	})
	ts := newHTTPServer(t, s)

	check := func(wantCode int, wantReason string) {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var health struct {
			Status string `json:"status"`
			Reason string `json:"reason"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != wantCode {
			t.Fatalf("healthz status %d (%+v), want %d", resp.StatusCode, health, wantCode)
		}
		if wantReason != "" && !strings.Contains(health.Reason, wantReason) {
			t.Fatalf("healthz reason %q, want it to mention %q", health.Reason, wantReason)
		}
	}

	// Index installed but snapshot not yet loaded: unready.
	check(http.StatusServiceUnavailable, "bootstrapping")

	// Bootstrapped and caught up: ready.
	ff.st = replica.Stats{Bootstrapped: true, Bootstraps: 1}
	check(http.StatusOK, "")

	// Over the record SLO: unready again.
	ff.st.LagRecords = 11
	check(http.StatusServiceUnavailable, "11 records")

	// At the SLO boundary: ready (SLO is "exceeds", not "reaches").
	ff.st.LagRecords = 10
	check(http.StatusOK, "")

	// Over the time SLO: unready.
	ff.st.LagSeconds = 6.5
	check(http.StatusServiceUnavailable, "6.5s")

	ff.st.LagSeconds = 0
	check(http.StatusOK, "")
}

// The follower metrics section exports the lag gauges and per-log apply
// positions the cluster runbook watches.
func TestFollowerMetrics(t *testing.T) {
	ix, _ := buildTestIndex(t, 60)
	ff := &fakeFollower{st: replica.Stats{
		Bootstrapped: true,
		Bootstraps:   2,
		LagRecords:   7,
		LagSeconds:   1.5,
		Positions: []replica.LogPosition{
			{Log: 0, Segment: 3, Offset: 4096, Processed: 123},
			{Log: 1, Segment: 2, Offset: 8, Processed: 45},
		},
	}}
	s := New(ix, Config{ReadOnly: true, Follower: ff})
	ts := newHTTPServer(t, s)

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw := readAll(t, resp)
	for _, want := range []string{
		"nncell_repl_bootstrapped 1",
		"nncell_repl_bootstraps_total 2",
		"nncell_repl_lag_records 7",
		"nncell_repl_lag_seconds 1.5",
		`nncell_repl_apply_segment{log="0"} 3`,
		`nncell_repl_apply_offset{log="1"} 8`,
		`nncell_repl_applied_records_total{log="0"} 123`,
		"nncell_stale_cells_highwater",
	} {
		if !strings.Contains(raw, want) {
			t.Fatalf("metrics missing %q:\n%s", want, raw)
		}
	}
}
