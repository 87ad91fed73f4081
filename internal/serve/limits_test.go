package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// oversizedBody is a syntactically open JSON object longer than
// maxBodyBytes, so only the size bound can end its decoding.
func oversizedBody() *bytes.Reader {
	return bytes.NewReader([]byte(`{"molecule":"` + strings.Repeat("C", 2*maxBodyBytes) + `"}`))
}

// An oversized submit body is refused with 413 before it is decoded
// whole, and the API keeps serving the next, well-formed submit.
func TestSubmitRejectsOversizedBody(t *testing.T) {
	g := newGate()
	t.Cleanup(func() { close(g.release) })
	s, _ := newTestServer(t, Config{Capacity: 1, MaxQueue: 2, Runner: g})
	hs := httptest.NewServer((&API{Server: s}).Handler())
	t.Cleanup(hs.Close)

	resp, err := hs.Client().Post(hs.URL+"/v1/jobs", "application/json", oversizedBody())
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("oversized submit: HTTP %d, want 413", resp.StatusCode)
		}
	} // else: the server closed the connection mid-upload, also a refusal

	resp, err = hs.Client().Post(hs.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"molecule":"CH4"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit after an oversized one: HTTP %d, want 202", resp.StatusCode)
	}
}

// The registry API bounds its request bodies the same way and keeps
// serving afterwards.
func TestRegistryRejectsOversizedBody(t *testing.T) {
	_, srv := newTestRegistryServer(t)

	resp, err := srv.Client().Post(srv.URL+"/reg/v1/create", "application/json", oversizedBody())
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("oversized create: HTTP %d, want 413", resp.StatusCode)
		}
	} // else: a closed connection, as for the submit

	body, _ := json.Marshal(regReq{Spec: JobSpec{Molecule: "CH4"}, Owner: "p1", Inc: 1})
	resp, err = srv.Client().Post(srv.URL+"/reg/v1/create", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out regResp
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !out.OK || out.ID == "" {
		t.Fatalf("create after an oversized one: HTTP %d, %+v", resp.StatusCode, out)
	}
}
