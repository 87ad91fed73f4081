package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// FuzzJobSpec: no submit body panics the bounded decoder the job API
// runs on it. A rejected body answers with a 4xx status and an error; an
// accepted one yields a spec that survives a JSON round trip unchanged.
func FuzzJobSpec(f *testing.F) {
	for _, seed := range []string{
		`{"molecule":"CH4","basis":"sto-3g","tenant":"teamA"}`,
		`{"molecule":"alkane:3","basis":"cc-pvdz","priority":2,"max_iter":40,"conv_tol":1e-9,"deadline_ms":5000}`,
		`{"molecule":"flake:1"}`,
		`{"molecule":1}`,
		`{"molecule":"H2"`,
		`[]`,
		``,
		`{"conv_tol":1e400}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(string(body)))
		var spec JobSpec
		code, err := decodeBody(httptest.NewRecorder(), req, &spec)
		if err != nil {
			if code < 400 || code > 499 {
				t.Fatalf("rejected body answered %d, want a 4xx", code)
			}
			return
		}
		enc, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("accepted spec does not re-encode: %v", err)
		}
		var back JobSpec
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("re-encoded spec does not decode: %v", err)
		}
		if !reflect.DeepEqual(back, spec) {
			t.Fatalf("round trip changed the spec: %+v -> %+v", spec, back)
		}
	})
}
