package fleet

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/pkg/dcsim/sweep/remote"
)

// FuzzFleetHandler drives the membership protocol's two body-carrying
// endpoints — POST /fleet/register, then a heartbeat PUT to
// /fleet/members/{id} — with fuzzed bodies. The handler must never panic,
// every non-2xx answer must carry the typed {"error": {"code", ...}}
// envelope, and an accepted registration's URL must pass the one
// worker-URL rule unchanged.
func FuzzFleetHandler(f *testing.F) {
	// The requests the registry and handler tests send.
	for _, seed := range [][2]string{
		{`{"url":"127.0.0.1:9","capabilities":"sha256:x","heartbeat_interval_ms":25}`, `{"inflight":4}`},
		{`{"url":"http://w:1"}`, `{"status":"ok","inflight":2}`},
		{`{"url":"http://w:1","heartbeat_interval_ms":50}`, `{"status":"draining","inflight":1}`},
		{`{"url":"http://w:1","status":"draining"}`, `{"status":"alive"}`},
		{`{"url":"127.0.0.1:19999","heartbeat_interval_ms":15,"status":"ok"}`, `{}`},
		{`{`, `{`},
		{`{"url":"://"}`, `{"status":"draining","inflight":-1}`},
		{`{"url":"http://w:1","extra":1}`, `{"extra":1}`},
	} {
		f.Add([]byte(seed[0]), []byte(seed[1]))
	}
	f.Fuzz(func(t *testing.T, register, heartbeat []byte) {
		reg := NewRegistry(Config{DefaultInterval: time.Minute})
		defer reg.Close()
		h := NewHandler(reg)

		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, registerPath, bytes.NewReader(register)))
		wantEnvelope(t, "register", rec)
		id := "w1"
		if rec.Code == http.StatusOK {
			var rr RegisterResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &rr); err != nil || rr.ID == "" {
				t.Fatalf("accepted register answered %q: %v", rec.Body.Bytes(), err)
			}
			id = rr.ID
			ms := reg.Members()
			if len(ms) != 1 {
				t.Fatalf("accepted register left %d members", len(ms))
			}
			if got, err := remote.NormalizeURL(ms[0].URL); err != nil || got != ms[0].URL {
				t.Fatalf("accepted URL %q fails the URL rule: %q, %v", ms[0].URL, got, err)
			}
		}

		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPut, membersPath+id, bytes.NewReader(heartbeat)))
		wantEnvelope(t, "heartbeat", rec)
	})
}

// wantEnvelope fails unless a non-2xx answer carries the typed envelope.
func wantEnvelope(t *testing.T, what string, rec *httptest.ResponseRecorder) {
	t.Helper()
	if rec.Code >= 200 && rec.Code <= 299 {
		return
	}
	var fe fleetError
	if err := json.Unmarshal(rec.Body.Bytes(), &fe); err != nil || fe.Error.Code == "" {
		t.Fatalf("%s: status %d without the typed envelope: %q (%v)", what, rec.Code, rec.Body.Bytes(), err)
	}
}
