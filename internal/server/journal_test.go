package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"wolf/internal/store"
)

// getBody fetches url and returns its status and body bytes.
func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// restartOver shuts s and its store down cleanly and brings a server
// with cfg up over the same corpus directory.
func restartOver(t *testing.T, dir string, s *Server, ts *httptest.Server, st *store.Store, cfg Config) *httptest.Server {
	t.Helper()
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := openStore(t, dir)
	t.Cleanup(func() { st2.Close() })
	cfg.Store = st2
	_, ts2 := startServer(t, cfg)
	return ts2
}

// TestJournalReportAfterRestart: a rehydrated done job's report is read
// from the corpus journal and comes back byte for byte as it was served
// before the restart, whether a remote analyzer delivered it (here with
// whitespace and an unescaped '<' no Go encoder would write) or the
// server analyzed the trace itself.
func TestJournalReportAfterRestart(t *testing.T) {
	t.Run("remote", func(t *testing.T) {
		dir := t.TempDir()
		cfg := Config{QueueSize: 8, Role: RoleCoordinator, LeaseTTL: time.Hour, HeartbeatTimeout: time.Hour}
		st := openStore(t, dir)
		cfg.Store = st
		s := New(cfg)
		ts := httptest.NewServer(s.Handler())
		node := registerNode(t, ts.URL, "a")
		id := uploadFig4(t, ts.URL)
		if w := pullWork(t, ts.URL, node); w.Job != id {
			t.Fatalf("granted %s, want %s", w.Job, id)
		}
		rep := "{\n  \"tool\": \"wolf\",\n  \"summary\": {\"candidates\": 1, \"note\": \"a<b\"}\n}"
		body := fmt.Sprintf(`{"node":%q,"job":%q,"ok":true,"report":%s}`, node, id, rep)
		resp, err := http.Post(ts.URL+"/v1/work/complete", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("complete = %d", resp.StatusCode)
		}
		code, before := getBody(t, ts.URL+"/v1/jobs/"+id+"/report")
		if code != http.StatusOK || string(before) != rep {
			t.Fatalf("report before restart = %d %s, want %s", code, before, rep)
		}
		ts2 := restartOver(t, dir, s, ts, st, cfg)
		if code, after := getBody(t, ts2.URL+"/v1/jobs/"+id+"/report"); code != http.StatusOK || !bytes.Equal(after, before) {
			t.Errorf("report after restart = %d %s, want %s", code, after, before)
		}
	})
	t.Run("local", func(t *testing.T) {
		dir := t.TempDir()
		cfg := Config{Workers: 2, QueueSize: 8}
		st := openStore(t, dir)
		cfg.Store = st
		s := New(cfg)
		ts := httptest.NewServer(s.Handler())
		tr, _ := fig4TraceFrom(t, 1)
		done := uploadAndFinish(t, ts.URL, binBody(t, tr))
		code, before := getBody(t, ts.URL+"/v1/jobs/"+done.ID+"/report")
		if code != http.StatusOK {
			t.Fatalf("report before restart = %d", code)
		}
		ts2 := restartOver(t, dir, s, ts, st, cfg)
		if code, after := getBody(t, ts2.URL+"/v1/jobs/"+done.ID+"/report"); code != http.StatusOK || !bytes.Equal(after, before) {
			t.Errorf("report after restart = %d %s, want %s", code, after, before)
		}
	})
}

// TestJobsLimitTail: GET /v1/jobs?limit=N, which builds views of the
// jobs it returns only, answers the tail of the full listing, with and
// without a state filter, rehydrated jobs included.
func TestJobsLimitTail(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 1, QueueSize: 8}
	st := openStore(t, dir)
	cfg.Store = st
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	tr, _ := fig4TraceFrom(t, 1)
	body := binBody(t, tr)
	for i := 0; i < 3; i++ {
		uploadAndFinish(t, ts.URL, body)
	}
	// A job the restart finds running: it comes back failed.
	if err := st.AppendJob(store.JobRecord{ID: "j-000004", State: "running", Source: "upload", Created: time.Now().UTC()}); err != nil {
		t.Fatal(err)
	}
	ts = restartOver(t, dir, s, ts, st, cfg)
	for i := 0; i < 2; i++ {
		uploadAndFinish(t, ts.URL, body)
	}

	type listing struct {
		Jobs []JobView `json:"jobs"`
	}
	var all listing
	if code := getJSON(t, ts.URL+"/v1/jobs", &all); code != http.StatusOK || len(all.Jobs) != 6 {
		t.Fatalf("jobs: code=%d n=%d, want 6", code, len(all.Jobs))
	}
	if all.Jobs[3].State != string(StateFailed) {
		t.Fatalf("job %s = %s, want failed", all.Jobs[3].ID, all.Jobs[3].State)
	}
	for _, state := range []string{"", "done", "failed", "queued"} {
		var matching []JobView
		for _, v := range all.Jobs {
			if state == "" || v.State == state {
				matching = append(matching, v)
			}
		}
		for _, n := range []int{0, 1, 4, 5, 9} {
			var got listing
			url := fmt.Sprintf("%s/v1/jobs?state=%s&limit=%d", ts.URL, state, n)
			if code := getJSON(t, url, &got); code != http.StatusOK || got.Jobs == nil {
				t.Fatalf("state=%q limit=%d: code=%d jobs=%v", state, n, code, got.Jobs)
			}
			want := matching[max(0, len(matching)-n):]
			gotJSON, _ := json.Marshal(got.Jobs)
			wantJSON, _ := json.Marshal(want)
			if len(want) == 0 {
				wantJSON = []byte("[]")
			}
			if !bytes.Equal(gotJSON, wantJSON) {
				t.Errorf("state=%q limit=%d = %s, want %s", state, n, gotJSON, wantJSON)
			}
		}
	}
}
