// Command sweepd is the shard worker of the distributed sweep: a
// long-running daemon that accepts dispatcher connections (paperrepro
// or specdsm invoked with -remote), rebuilds each dispatcher's study
// from its handshake spec, and executes job batches, streaming results
// back frame by frame with heartbeats while long simulations compute.
//
//	sweepd                         # serve on a free loopback port
//	sweepd -listen 0.0.0.0:7701    # serve a fixed port
//	sweepd -faults seed=7,conndrop=0.01
//	                               # chaos testing: inject connection
//	                               # faults on every dispatcher link
//
// The daemon prints "sweepd listening on ADDR" on stdout once bound
// (harnesses scrape this for -listen :0) and logs per-connection and
// per-batch activity on stderr. One process serves any number of
// sequential or concurrent dispatchers; per-connection simulation
// arenas amortize allocation across a dispatcher's batches. Workers
// hold no sweep state worth preserving — killing one loses nothing but
// in-flight batches, which the dispatcher re-runs elsewhere — so
// SIGINT/SIGTERM simply drain: the listener and all connections close
// and the process exits.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"

	"specdsm"
	"specdsm/internal/cli"
	"specdsm/internal/remote"
)

func main() {
	spec, err := parseDaemon(os.Args[1:], os.Stderr)
	if err != nil {
		cli.Exit("sweepd", cli.Usage(err))
	}
	cli.Exit("sweepd", serve(spec))
}

func serve(spec daemonSpec) error {
	lis, err := net.Listen("tcp", spec.Listen)
	if err != nil {
		return fmt.Errorf("sweepd: %w", err)
	}
	fmt.Printf("sweepd listening on %s\n", lis.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	srv := &remote.Server{
		NewRunner:      specdsm.NewRemoteRunner,
		Inject:         spec.Inject,
		HeartbeatEvery: spec.HeartbeatEvery,
		Logf:           log.New(os.Stderr, "sweepd: ", log.LstdFlags).Printf,
	}
	return srv.Serve(ctx, lis)
}
