// laminar-server runs the Laminar API server: the registry (Section 3.1)
// plus the layered controller tree of Table 3, with an embedded execution
// engine for /execution/{user}/run and an optional operational telemetry
// endpoint (-metrics; see docs/operations.md).
//
// Usage:
//
//	laminar-server -addr 127.0.0.1:8080 -registry registry.json \
//	    -registry-latency 10ms -vo-url http://127.0.0.1:9090 -metrics
package main

import (
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"laminar"
)

func main() {
	opts, addr := registerFlags(flag.CommandLine)
	flag.Parse()
	if err := opts.Validate(); err != nil {
		log.Fatalf("laminar-server: %v", err)
	}
	srv := laminar.NewServer(*opts)
	url, err := srv.Start(*addr)
	if err != nil {
		log.Fatalf("laminar-server: %v", err)
	}
	log.Printf("laminar-server: serving the Laminar API at %s (vector index: %s)", url, srv.Registry().IndexName())
	if opts.Metrics {
		log.Printf("laminar-server: telemetry exposed at %s/metrics", url)
	}
	if opts.RegistryPath != "" {
		how := "rebuilt (no usable index snapshot)"
		if srv.Registry().IndexesRestored() {
			how = "restored from snapshot, no retrain"
		}
		log.Printf("laminar-server: registry persisted to %s (indexes %s)", opts.RegistryPath, how)
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	log.Printf("laminar-server: shutting down")
	// Drain first, save second: Close's graceful shutdown lets in-flight
	// writes finish (and be acknowledged), so the snapshot taken afterwards
	// contains them — saving before the drain would lose every write the
	// grace window accepts.
	srv.Close()
	if err := srv.SaveRegistry(); err != nil {
		log.Printf("laminar-server: saving registry: %v", err)
	}
	time.Sleep(50 * time.Millisecond)
}
