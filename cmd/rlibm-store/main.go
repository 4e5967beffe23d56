// Command rlibm-store serves a content-addressed artifact store over the
// framed-TCP wire protocol, so several rlibm processes — on one machine or
// many — can share one cache and distribute work with -store
// tcp://host:port (optionally plus -shard k/n).
//
// The server is a thin relay in front of an ordinary backend: every
// consistency property (atomic publication, sealed-frame checksums, audit)
// belongs to the backing store, and the bytes a client Puts are the bytes
// every client Gets. By default it fronts the atomic-rename disk store
// rooted at -cache-dir — persistent across restarts and shareable with
// local dir: runs — while -mem serves an ephemeral in-memory store for
// tests and throwaway distributed runs.
//
// Typical use:
//
//	rlibm-store -listen :7070                        # serve the default cache dir
//	rlibm-store -listen 127.0.0.1:7070 -mem          # ephemeral store for a test fleet
//	rlibm-gen -store tcp://host:7070 -shard 0/2 &    # then point workers at it
//	rlibm-gen -store tcp://host:7070 -shard 1/2
//
// On SIGINT/SIGTERM the listener closes, in-flight connections drain, and
// — for a disk backing — a final Audit sweep reports the cache's health.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/pipeline"
)

func main() {
	var (
		listen   = flag.String("listen", "127.0.0.1:7070", "TCP address to serve the store on")
		cacheDir = flag.String("cache-dir", cli.DefaultCacheDir(), "artifact cache directory backing the served store")
		mem      = flag.Bool("mem", false, "serve an ephemeral in-memory store instead of the disk cache")
		maxConns = flag.Int("max-conns", 64, "maximum concurrently served connections (0 = unlimited)")
		idle     = flag.Duration("idle-timeout", 2*time.Minute, "drop a connection idle for this long (0 = never)")
		maxBytes = flag.Int64("max-bytes", 0, "evict least-recently-used artifacts once the store exceeds this many bytes (0 = unbounded; claims and campaign manifests are never evicted)")
		verbose  = flag.Bool("v", false, "log per-connection protocol errors")
	)
	flag.Parse()
	if *maxConns < 0 {
		log.Fatalf("invalid -max-conns %d: must be at least 0 (0 = unlimited)", *maxConns)
	}
	if *idle < 0 {
		log.Fatalf("invalid -idle-timeout %v: must be at least 0 (0 = never)", *idle)
	}
	if *maxBytes < 0 {
		log.Fatalf("invalid -max-bytes %d: must be at least 0 (0 = unbounded)", *maxBytes)
	}

	var backing pipeline.Store
	if *mem {
		backing = pipeline.NewMemStore()
	} else {
		if *cacheDir == "" {
			log.Fatal("invalid -cache-dir \"\": the served store needs a directory (or pass -mem)")
		}
		st, err := pipeline.Open(*cacheDir)
		if err != nil {
			log.Fatal(err)
		}
		backing = st
	}

	where := "mem:"
	if ds, ok := backing.(*pipeline.DiskStore); ok {
		where = "dir:" + ds.Dir()
	}
	var evicting *pipeline.EvictingStore
	if *maxBytes > 0 {
		evicting = pipeline.NewEvictingStore(backing, *maxBytes)
		backing = evicting
		where = fmt.Sprintf("%s (LRU budget %d bytes)", where, *maxBytes)
	}

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rlibm-store: serving %s on %s\n", where, l.Addr())

	// Close the listener on SIGINT/SIGTERM; Serve drains and returns nil.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		fmt.Printf("rlibm-store: %v — draining\n", s)
		l.Close()
	}()

	var logf pipeline.Logf
	if *verbose {
		logf = log.Printf
	}
	opts := pipeline.ServeOptions{MaxConns: *maxConns, IdleTimeout: *idle}
	if err := pipeline.ServeWith(l, backing, opts, logf); err != nil {
		log.Fatal(err)
	}
	if err := backing.Audit(); err != nil {
		log.Fatalf("rlibm-store: post-run audit: %v", err)
	}
	if evicting != nil {
		st := evicting.Stats()
		fmt.Printf("rlibm-store: evictions=%d bytes_evicted=%d bytes_live=%d artifacts=%d\n",
			st.Evictions, st.BytesEvicted, st.BytesLive, st.Artifacts)
	}
	fmt.Println("rlibm-store: audit clean")
}
