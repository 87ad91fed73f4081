package metrics

import (
	"expvar"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on the default mux
	"sync"
	"sync/atomic"
)

var (
	publishOnce sync.Once
	currentReg  atomic.Pointer[Registry]
)

// Publish exposes reg as the expvar "fock_metrics" (on /debug/vars).
// Safe to call repeatedly — later calls swap which registry the variable
// reads, since expvar names can be published only once per process.
func Publish(reg *Registry) {
	currentReg.Store(reg)
	publishOnce.Do(func() {
		expvar.Publish("fock_metrics", expvar.Func(func() any {
			return currentReg.Load().Snapshot()
		}))
	})
}

var publishedFuncs sync.Map // expvar name -> *atomic.Value holding func() any

// PublishFunc exposes fn as the expvar name (on /debug/vars). Safe to
// call repeatedly — expvar allows each name only once per process, so
// later calls swap which function the variable reads. Used to export
// shard and service state alongside fock_metrics.
func PublishFunc(name string, fn func() any) {
	holder, loaded := publishedFuncs.LoadOrStore(name, &atomic.Value{})
	h := holder.(*atomic.Value)
	h.Store(fn)
	if !loaded {
		expvar.Publish(name, expvar.Func(func() any {
			return h.Load().(func() any)()
		}))
	}
}

// StartDebugServer publishes reg and serves the process-wide debug mux —
// /debug/vars (expvar, including fock_metrics) and /debug/pprof/ — on
// addr in a background goroutine. It returns the bound address (useful
// with ":0") and never stops serving; the endpoint is an inspection aid
// for the lifetime of a run, not a managed service.
func StartDebugServer(addr string, reg *Registry) (string, error) {
	Publish(reg)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	go func() {
		_ = http.Serve(ln, nil)
	}()
	return ln.Addr().String(), nil
}
