// Command fockd is one shard server of the network-backed Global Arrays
// transport: for every session it hosts the D and F blocks of its share
// of the process grid and serves framed one-sided Get/Put/Acc RPCs over
// TCP, with idempotency-token dedup so retrying clients accumulate
// exactly once.
//
// A session carries its own grid geometry in its Hello, so one fockd
// fleet serves any molecule, basis, grid or shell ordering; only the
// server count and each server's index must match the driver's address
// list:
//
//	fockd -servers 2 -index 0 -listen 127.0.0.1:7101
//	fockd -servers 2 -index 1 -listen 127.0.0.1:7102
//	fockbuild -mol alkane:2 -basis sto-3g -grid 2x2 -backend net -net-servers 127.0.0.1:7101,127.0.0.1:7102
//
// The same fleet serves hfd's jobs, many sessions at once, admitted
// against -multi-sessions and -multi-mem-mb. Sessions are volatile by
// design: a killed and restarted fockd forgets them, its clients see
// "unknown session", and fockbuild (or hfd) retries the build under a
// fresh session. -http serves /debug/vars with the shard state.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"gtfock/internal/metrics"
	netga "gtfock/internal/net"
)

func main() {
	var (
		servers     = flag.Int("servers", 1, "total number of shard servers in the cluster")
		index       = flag.Int("index", 0, "this server's index in [0, servers)")
		listen      = flag.String("listen", "127.0.0.1:0", "TCP address to listen on")
		httpAddr    = flag.String("http", "", "serve /debug/vars and /debug/pprof on this address")
		maxSessions = flag.Int("multi-sessions", 256, "cap on concurrently resident sessions")
		memMB       = flag.Int64("multi-mem-mb", 0, "resident memory budget in MiB across sessions (0 = unlimited)")
	)
	flag.Parse()

	ms, err := netga.NewMultiServer(*servers, *index, *maxSessions, *memMB<<20)
	fatalIf(err)
	addr, err := ms.Start(*listen)
	fatalIf(err)
	if *httpAddr != "" {
		metrics.PublishFunc("fock_shard", func() any { return ms.Stats() })
		dbg, err := metrics.StartDebugServer(*httpAddr, nil)
		fatalIf(err)
		fmt.Printf("fockd: debug endpoint on http://%s/debug/vars\n", dbg)
	}
	fmt.Printf("fockd %d/%d: serving on %s (cap %d sessions, budget %d MiB)\n",
		*index, *servers, addr, *maxSessions, *memMB)

	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	<-ch
	ms.Close()
	st := ms.Stats()
	fmt.Printf("fockd %d: %d requests, %d accs applied, %d dedup hits, %d sessions opened (%d released), %d session rejects\n",
		*index, st.Requests, st.AccApplied, st.AccDups, st.SessionsOpened, st.SessionsClosed, st.SessionRejects)
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "fockd:", err)
		os.Exit(1)
	}
}
