// Command refserve runs the reference-generation HTTP service
// (pkg/server): POST /v1/generate with a netlist + spec + options,
// GET /v1/stats, GET /healthz.
//
// Usage:
//
//	refserve -addr :8080
//	refserve -addr 127.0.0.1:0 -portfile port.txt   # CI: random port, written to a file
//
// On SIGTERM (or SIGINT) the server drains: admission sheds new
// generations with 503 + Retry-After, /healthz answers 503, in-flight
// generations finish and fill the cache tiers, and the process exits
// 0 — or, at -drain-timeout, cancels what is left (streaming clients
// get a terminal error event) and still exits 0. Crash-safety of the
// disk cache tier does not depend on the drain succeeding.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // -debug-addr registers the profiling handlers on the default mux
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"repro/internal/faultfs"
	"repro/pkg/engine"
	"repro/pkg/server"

	// Register the fault-injecting backend wrapper so robustness
	// scenarios run against the service: -backend fault:nodal.
	_ "repro/internal/fault"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil, nil))
}

// run is the testable entry point. ready, when non-nil, receives the
// bound address once the listener is up; closing stop triggers the
// same graceful drain a SIGTERM does. The process exit code is 2 for
// usage errors, 1 for runtime failures.
func run(args []string, stdout, stderr io.Writer, ready chan<- net.Addr, stop <-chan struct{}) int {
	fs := flag.NewFlagSet("refserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr          = fs.String("addr", ":8080", "listen address (use :0 for a random port)")
		portfile      = fs.String("portfile", "", "write the bound port number to this file once listening")
		backend       = fs.String("backend", "", "formulation backend (default: auto from spec kind)")
		cacheEntries  = fs.Int("cache-entries", 0, "result cache entry bound (0 = default 512, negative = unbounded)")
		cacheBytes    = fs.Int64("cache-bytes", 0, "result cache byte bound (0 = default 64 MiB, negative = unbounded)")
		maxConcurrent = fs.Int("max-concurrent", 0, "concurrent generation bound (0 = GOMAXPROCS)")
		maxQueue      = fs.Int("max-queue", 0, "admission queue bound; beyond it requests shed with 503 (0 = 4x max-concurrent, negative = unbounded)")
		maxBodyBytes  = fs.Int64("max-body-bytes", 0, "request body cap, larger bodies answer 413 (0 = 4 MiB)")
		timeout       = fs.Duration("timeout", 0, "default per-request deadline (0 = 60s)")
		maxTimeout    = fs.Duration("max-timeout", 0, "deadline and generation-time ceiling (0 = 5m)")
		drainTimeout  = fs.Duration("drain-timeout", 10*time.Second, "graceful-drain deadline after SIGTERM before in-flight work is canceled")
		cacheDir      = fs.String("cache-dir", "", "directory of the persistent result-cache tier (empty = disabled)")
		solveBudget   = fs.Int("solve-budget", 0, "per-polynomial point-solve budget; exhaustion degrades the result, never cached (0 = off)")
		faultSeed     = fs.Int64("store-fault-seed", 0, "seed for the deterministic disk-fault injector under the disk cache tier")
		faultOneIn    = fs.Int("store-fault-one-in", 0, "inject a disk fault (torn write / bit flip / rename / read failure) into roughly 1 in N disk-cache operations (0 = off); chaos testing only")
		debugAddr     = fs.String("debug-addr", "", "serve net/http/pprof on this separate address (empty = disabled; never exposed on the serving port)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "refserve: unexpected arguments: %v\n", fs.Args())
		return 2
	}

	var storeFS server.FS
	if *faultOneIn > 0 {
		storeFS = faultfs.New(&faultfs.Plan{
			Seed:           *faultSeed,
			TornWriteOneIn: *faultOneIn,
			BitFlipOneIn:   *faultOneIn,
			RenameOneIn:    *faultOneIn,
			ReadOneIn:      *faultOneIn,
		})
		fmt.Fprintf(stdout, "refserve: disk-fault injection armed (seed %d, 1 in %d)\n", *faultSeed, *faultOneIn)
	}

	srv, err := server.New(server.Config{
		Engine:         engineConfig(*backend),
		CacheEntries:   *cacheEntries,
		CacheBytes:     *cacheBytes,
		MaxConcurrent:  *maxConcurrent,
		MaxQueue:       *maxQueue,
		MaxBodyBytes:   *maxBodyBytes,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		CacheDir:       *cacheDir,
		StoreFS:        storeFS,
		SolveBudget:    *solveBudget,
	})
	if err != nil {
		fmt.Fprintf(stderr, "refserve: %v\n", err)
		return 1
	}
	defer srv.Close()

	if *debugAddr != "" {
		// Opt-in profiling endpoint on its own listener, never the serving
		// port: the pprof handlers are registered on the default mux by
		// the net/http/pprof import, and the service mux (srv.Handler)
		// does not route them.
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fmt.Fprintf(stderr, "refserve: debug listener: %v\n", err)
			return 1
		}
		defer dln.Close()
		go func() { _ = http.Serve(dln, nil) }()
		fmt.Fprintf(stdout, "refserve: pprof on %s\n", dln.Addr())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "refserve: %v\n", err)
		return 1
	}
	if *portfile != "" {
		port := strconv.Itoa(ln.Addr().(*net.TCPAddr).Port)
		if err := os.WriteFile(*portfile, []byte(port+"\n"), 0o644); err != nil {
			fmt.Fprintf(stderr, "refserve: %v\n", err)
			ln.Close()
			return 1
		}
	}

	// Header and idle timeouts bound slow-loris connections; request
	// bodies are separately capped by MaxBodyBytes and the per-request
	// deadline.
	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, unnotify := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer unnotify()

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	fmt.Fprintf(stdout, "refserve: listening on %s\n", ln.Addr())
	if ready != nil {
		ready <- ln.Addr()
	}

	select {
	case err := <-errc:
		fmt.Fprintf(stderr, "refserve: %v\n", err)
		return 1
	case <-ctx.Done():
	case <-stop:
	}

	// Drain sequence: stop admitting (sheds + unhealthy healthz) first,
	// so load balancers rotate away while in-flight work finishes; then
	// wait out the HTTP server up to the drain deadline; then cancel
	// whatever is left — in-flight streaming clients get a terminal
	// error event through the flight teardown, and the crash-safe
	// stores need no cooperation.
	srv.StartDrain()
	shctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := hs.Shutdown(shctx); err != nil {
		if !errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintf(stderr, "refserve: shutdown: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "refserve: drain deadline (%s) hit; canceling in-flight work\n", *drainTimeout)
		srv.Close()    // cancels flights; streaming handlers emit their terminal event
		_ = hs.Close() // force-closes whatever connections remain
	}
	fmt.Fprintln(stdout, "refserve: drained")
	return 0
}

func engineConfig(backend string) engine.Config {
	return engine.Config{Backend: backend}
}
