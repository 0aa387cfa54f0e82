// Command xpowerd is the estimation-as-a-service daemon: it serves
// concurrent estimate/lint/profile/simulate sessions over a
// length-prefixed JSON frame protocol on TCP and/or a unix socket,
// with bounded concurrency, backpressure, and graceful drain.
//
// Usage:
//
//	xpowerd [-listen addr] [-unix path] [-workers n] [-queue n]
//	        [-max-conns n] [-read-timeout d] [-write-timeout d] [-drain d]
//	        [-memo-dir path|off]
//
// SIGINT/SIGTERM starts a graceful drain: the daemon stops accepting,
// lets in-flight sessions finish under the -drain deadline, then
// force-cancels stragglers. A clean drain exits 0; a forced one exits 1.
//
// Clients: `xpower -remote <addr> -w <workload>` and
// `xlint -remote <addr> -w <workload>`, where addr is host:port or
// unix:<path>.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"xtenergy/internal/engine"
	"xtenergy/internal/xpowerd"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7433", "TCP listen address (empty disables TCP)")
	unix := flag.String("unix", "", "unix-socket path (empty disables the socket)")
	workers := flag.Int("workers", 0, "concurrent pipeline runs (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "admission-queue depth beyond the workers (0 = 2x workers)")
	maxConns := flag.Int("max-conns", 0, "open-session limit (0 = 64)")
	readTimeout := flag.Duration("read-timeout", 0, "per-frame read deadline (0 = 30s)")
	writeTimeout := flag.Duration("write-timeout", 0, "per-response write deadline (0 = 30s)")
	drain := flag.Duration("drain", 0, "graceful-drain deadline on SIGTERM (0 = 15s)")
	memoDir := flag.String("memo-dir", "", "artifact-cache directory (empty = $XTENERGY_MEMO_DIR or the user cache dir; \"off\" = memory-only)")
	quiet := flag.Bool("quiet", false, "suppress operational logging")
	flag.Parse()

	logger := log.New(os.Stderr, "", log.LstdFlags)
	logf := logger.Printf
	if *quiet {
		logf = nil
	}
	if *memoDir != "" {
		dir := *memoDir
		if dir == "off" {
			dir = "" // memory-only store
		}
		eng, err := engine.New(engine.Options{Dir: dir})
		if err != nil {
			fmt.Fprintln(os.Stderr, "xpowerd:", err)
			os.Exit(2)
		}
		xpowerd.SetEngine(eng)
	}
	srv := xpowerd.New(xpowerd.Config{
		TCPAddr:      *listen,
		UnixPath:     *unix,
		Workers:      *workers,
		QueueDepth:   *queue,
		MaxConns:     *maxConns,
		ReadTimeout:  *readTimeout,
		WriteTimeout: *writeTimeout,
		DrainTimeout: *drain,
		Logf:         logf,
	})
	if err := srv.Listen(); err != nil {
		fmt.Fprintln(os.Stderr, "xpowerd:", err)
		os.Exit(2)
	}

	// SIGINT/SIGTERM cancels ctx, which is the daemon's drain trigger;
	// a second signal kills the process the default way (stop releases
	// the handler), so a wedged drain can always be escalated.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		stop()
	}()

	start := time.Now()
	if err := srv.Serve(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "xpowerd:", err)
		os.Exit(1)
	}
	logger.Printf("xpowerd: clean shutdown after %v", time.Since(start).Round(time.Millisecond))
}
