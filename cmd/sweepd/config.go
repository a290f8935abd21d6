package main

import (
	"flag"
	"fmt"
	"io"
	"strings"
	"time"

	"specdsm/internal/fault"
)

// daemonSpec is the fully parsed and validated sweepd configuration.
// Flag handling lives here, separated from main's serving loop, so the
// flag→config mapping is unit-testable.
type daemonSpec struct {
	// Listen is the TCP address to serve on; port 0 picks a free port
	// (the daemon prints the resolved address on stdout either way, so
	// harnesses can scrape it).
	Listen string
	// Inject arms connection-level fault injection on every accepted
	// dispatcher connection (nil = off; chaos testing).
	Inject *fault.Injector
	// HeartbeatEvery overrides the liveness cadence while a batch
	// executes (0 = the server default).
	HeartbeatEvery time.Duration
}

// connFaultKeys are the fault-spec keys that make sense on a worker's
// connections. Job-level keys (transient, panic, delay) are refused
// here: job faults belong in the dispatcher's study spec, where every
// executor — any shard, or the dispatcher's in-process worker — applies
// the identical schedule. A worker injecting private job faults would
// break the contract that a job's outcome is shard-independent.
var connFaultKeys = map[string]bool{
	"seed": true, "delaymax": true,
	"conndrop": true, "connshort": true, "conndelay": true,
}

// parseDaemon builds a daemonSpec from raw command-line arguments
// (without the program name). Usage and error text go to errOut.
func parseDaemon(args []string, errOut io.Writer) (daemonSpec, error) {
	fs := flag.NewFlagSet("sweepd", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		listen    = fs.String("listen", "127.0.0.1:0", "TCP address to serve on (port 0 picks a free port; the resolved address is printed on stdout)")
		faults    = fs.String("faults", "", "connection-fault spec for chaos testing, e.g. seed=7,conndrop=0.01,connshort=0.2 (conn-level keys only)")
		heartbeat = fs.Duration("heartbeat-every", 0, "liveness cadence while a batch executes (0 = default)")
	)
	if err := fs.Parse(args); err != nil {
		return daemonSpec{}, err
	}
	if fs.NArg() > 0 {
		return daemonSpec{}, fmt.Errorf("sweepd: unexpected argument %q", fs.Arg(0))
	}
	s := daemonSpec{Listen: *listen, HeartbeatEvery: *heartbeat}
	if s.HeartbeatEvery < 0 {
		return daemonSpec{}, fmt.Errorf("sweepd: -heartbeat-every must not be negative, got %v", s.HeartbeatEvery)
	}
	if *faults != "" {
		for _, kv := range strings.Split(*faults, ",") {
			key, _, _ := strings.Cut(strings.TrimSpace(kv), "=")
			if !connFaultKeys[key] {
				return daemonSpec{}, fmt.Errorf("sweepd: -faults key %q is not a connection-level fault (job faults belong in the dispatcher's -faults, so every shard applies them identically)", key)
			}
		}
		inj, err := fault.ParseSpec(*faults)
		if err != nil {
			return daemonSpec{}, fmt.Errorf("sweepd: %w", err)
		}
		s.Inject = inj
	}
	return s, nil
}
