package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"strings"

	"gtfock/internal/metrics"
)

// API exposes a Server over HTTP (the hfd wire surface):
//
//	POST /v1/jobs             submit; 202 {"id"} | 503 reject | 400 bad spec | 413 body over 64 KiB
//	GET  /v1/jobs/{id}        status snapshot
//	GET  /v1/jobs/{id}/events NDJSON progress stream until terminal
//	POST /v1/jobs/{id}/cancel explicit cancellation
//	GET  /v1/stats            admission/queue/RPC counter snapshot
//	GET  /healthz             liveness (the process answers HTTP)
//	GET  /readyz              readiness (false while draining or before
//	                          the first registry sync; 200 without a Peer)
//
// With a Peer attached the API is HA-aware: submissions take a registry
// lease first, and a status/events query for a job owned by ANOTHER
// peer answers 307 with the owner's address from the registry — the
// client follows the redirect and keeps its stream across adoptions
// instead of seeing a spurious 404.
type API struct {
	Server *Server
	// RPC, when non-nil, is included in /v1/stats next to the serve
	// counters.
	RPC *metrics.RPC
	// Peer, when non-nil, routes submissions through the HA tier and
	// resolves unknown job ids against the shared registry.
	Peer *Peer
}

// Handler builds the route table.
func (a *API) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", a.submit)
	mux.HandleFunc("GET /v1/jobs/{id}", a.status)
	mux.HandleFunc("GET /v1/jobs/{id}/events", a.events)
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", a.cancel)
	mux.HandleFunc("GET /v1/stats", a.stats)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("GET /readyz", a.ready)
	return mux
}

// ready is the readiness probe: liveness says "the process answers",
// readiness says "route new work here". A draining or not-yet-synced
// peer is alive but not ready, which is exactly the window a load
// balancer must stop sending submissions for.
func (a *API) ready(w http.ResponseWriter, _ *http.Request) {
	ok, reason := true, "ok"
	if a.Peer != nil {
		ok, reason = a.Peer.Ready()
	} else if a.Server.Draining() {
		ok, reason = false, "draining"
	}
	code := http.StatusOK
	if !ok {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{"ready": ok, "reason": reason})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

type errBody struct {
	Error string `json:"error"`
	Cause string `json:"cause,omitempty"`
}

// maxBodyBytes bounds the request bodies the job API and the registry
// API decode: a job spec or registry request is a few hundred bytes, so
// a client streaming more is refused with 413 before it costs memory.
const maxBodyBytes = 64 << 10

// decodeBody decodes one JSON request body of at most maxBodyBytes into
// v. On failure it returns the status to answer with: 413 for an
// oversized body, 400 for malformed JSON.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) (int, error) {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	var tooBig *http.MaxBytesError
	switch {
	case err == nil:
		return 0, nil
	case errors.As(err, &tooBig):
		return http.StatusRequestEntityTooLarge, err
	default:
		return http.StatusBadRequest, err
	}
}

func (a *API) submit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if code, err := decodeBody(w, r, &spec); err != nil {
		writeJSON(w, code, errBody{Error: "bad JSON: " + err.Error()})
		return
	}
	submit := a.Server.Submit
	if a.Peer != nil {
		submit = a.Peer.Submit
	}
	j, err := submit(spec)
	if err != nil {
		var re *RejectError
		if errors.As(err, &re) {
			// Explicit overload refusal: the client must back off or
			// shed load itself; the server will not absorb it.
			cause := "queue_full"
			switch re.Cause {
			case metrics.RejectQuota:
				cause = "tenant_quota"
			case metrics.RejectMemory:
				cause = "memory_budget"
			}
			writeJSON(w, http.StatusServiceUnavailable, errBody{Error: re.Msg, Cause: cause})
			return
		}
		writeJSON(w, http.StatusBadRequest, errBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]string{"id": j.ID})
}

func (a *API) job(w http.ResponseWriter, r *http.Request) *Job {
	j := a.Server.Job(r.PathValue("id"))
	if j == nil {
		a.miss(w, r, r.PathValue("id"))
	}
	return j
}

// miss resolves a job id the local scheduler does not know. Without a
// Peer that is a plain 404; with one, the registry decides: owned
// elsewhere → 307 to the owner (the response a client's redirect
// follower handles transparently), terminal → the recorded outcome,
// between owners → 503 + Retry-After so the client re-asks after the
// adoption lands.
func (a *API) miss(w http.ResponseWriter, r *http.Request, id string) {
	if a.Peer == nil {
		writeJSON(w, http.StatusNotFound, errBody{Error: "unknown job"})
		return
	}
	ownerAddr, rec, pending, err := a.Peer.Lookup(id)
	switch {
	case err != nil:
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, errBody{Error: "registry unavailable: " + err.Error()})
	case ownerAddr != "":
		a.Server.met.AddOwnerRedirect()
		http.Redirect(w, r, "http://"+ownerAddr+r.URL.RequestURI(), http.StatusTemporaryRedirect)
	case pending:
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, errBody{Error: "job ownerless (adoption in flight)", Cause: "adopting"})
	case rec != nil:
		a.recorded(w, r, rec)
	default:
		writeJSON(w, http.StatusNotFound, errBody{Error: "unknown job"})
	}
}

// recorded serves a terminal registry record for a job no peer holds in
// memory anymore (e.g. finished on a peer that has since restarted).
func (a *API) recorded(w http.ResponseWriter, r *http.Request, rec *JobRecord) {
	st := Status{
		ID: rec.ID, Tenant: rec.Spec.Tenant, Priority: rec.Spec.Priority,
		Molecule: rec.Spec.Molecule, Basis: rec.Spec.Basis,
		State: rec.State, Result: rec.Result, Error: rec.Error,
	}
	if strings.HasSuffix(r.URL.Path, "/events") {
		// Synthesize the one event that matters: the terminal state. The
		// live per-iteration stream died with its peer; what the client
		// must never lose is the outcome.
		w.Header().Set("Content-Type", "application/x-ndjson")
		ev := Event{Type: rec.State, Msg: rec.Error}
		if rec.Result != nil {
			ev.Energy = rec.Result.Energy
			ev.Iter = rec.Result.Iterations
		}
		json.NewEncoder(w).Encode(ev)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (a *API) status(w http.ResponseWriter, r *http.Request) {
	if j := a.job(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.Status())
	}
}

func (a *API) cancel(w http.ResponseWriter, r *http.Request) {
	if j := a.job(w, r); j != nil {
		j.Cancel()
		writeJSON(w, http.StatusOK, map[string]string{"state": j.State().String()})
	}
}

// events streams the job's progress as NDJSON, one Event per line,
// blocking until the job reaches a terminal state or the client leaves.
func (a *API) events(w http.ResponseWriter, r *http.Request) {
	j := a.job(w, r)
	if j == nil {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for from := 0; ; {
		evs, ok := j.EventsSince(from)
		if !ok {
			return
		}
		for _, ev := range evs {
			if err := enc.Encode(ev); err != nil {
				return
			}
		}
		from += len(evs)
		if flusher != nil {
			flusher.Flush()
		}
		if r.Context().Err() != nil {
			return
		}
	}
}

// StatsBody is the /v1/stats response.
type StatsBody struct {
	Serve metrics.ServeSnapshot `json:"serve"`
	RPC   *metrics.RPCSnapshot  `json:"rpc,omitempty"`
}

func (a *API) stats(w http.ResponseWriter, _ *http.Request) {
	body := StatsBody{Serve: a.Server.met.Snapshot()}
	if a.RPC != nil {
		s := a.RPC.Snapshot()
		body.RPC = &s
	}
	writeJSON(w, http.StatusOK, body)
}
