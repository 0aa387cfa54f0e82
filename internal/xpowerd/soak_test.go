package xpowerd_test

import (
	"context"
	"encoding/binary"
	"errors"
	"math/rand"
	"net"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"xtenergy/internal/xpowerd"
)

// TestSoakConcurrentSessions hammers one daemon with concurrent
// sessions mixing every client behavior the robustness layers exist
// for — happy-path work on both listeners, mid-frame disconnects,
// oversized frames, client-side cancellations mid-flight, poisoned
// requests — then drains and checks every goroutine came home. Run
// under -race (the tier-1 invocation), this is the leak-and-race gate
// from the issue's chaos criteria.
func TestSoakConcurrentSessions(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	baseline := runtime.NumGoroutine()

	sockPath := filepath.Join(t.TempDir(), "d.sock")
	cfg := xpowerd.Config{
		TCPAddr:      "127.0.0.1:0",
		UnixPath:     sockPath,
		Workers:      2,
		QueueDepth:   8,
		DrainTimeout: 20 * time.Second,
		ReadTimeout:  5 * time.Second,
		RequestHook:  panicOnWorkload("poisoned"),
	}
	srv := xpowerd.New(cfg)
	if err := srv.Listen(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx) }()

	tcpAddr := srv.Addrs()[0].String()
	addrs := []string{tcpAddr, "unix:" + sockPath}

	const sessions = 21
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i)))
			time.Sleep(time.Duration(rng.Intn(20)) * time.Millisecond)
			addr := addrs[i%len(addrs)]
			switch i % 7 {
			case 0: // full estimate round-trip
				client, err := xpowerd.Dial(addr, 5*time.Second)
				if err != nil {
					t.Error(err)
					return
				}
				defer client.Close()
				resp, err := client.Do(context.Background(), &xpowerd.Request{
					Op: xpowerd.OpEstimate, Workload: "accumulate", Fast: true,
				})
				if err != nil {
					var we *xpowerd.WireError
					// Sheddings under pressure are legitimate outcomes.
					if !errors.As(err, &we) || we.Code != xpowerd.ErrCodeUnavailable {
						t.Errorf("session %d estimate: %v", i, err)
					}
					return
				}
				if resp.Status != xpowerd.StatusOK {
					t.Errorf("session %d estimate status %d", i, resp.Status)
				}
			case 1: // lint round-trip
				client, err := xpowerd.Dial(addr, 5*time.Second)
				if err != nil {
					t.Error(err)
					return
				}
				defer client.Close()
				if _, err := client.Do(context.Background(), &xpowerd.Request{
					Op: xpowerd.OpLint, Workload: "rs_gffold",
				}); err != nil {
					var we *xpowerd.WireError
					if !errors.As(err, &we) || we.Code != xpowerd.ErrCodeUnavailable {
						t.Errorf("session %d lint: %v", i, err)
					}
				}
			case 2: // simulate inline source
				client, err := xpowerd.Dial(addr, 5*time.Second)
				if err != nil {
					t.Error(err)
					return
				}
				defer client.Close()
				if _, err := client.Do(context.Background(), &xpowerd.Request{
					Op: xpowerd.OpSimulate, Source: tinySource, SourceName: "soak.s",
				}); err != nil {
					var we *xpowerd.WireError
					if !errors.As(err, &we) || we.Code != xpowerd.ErrCodeUnavailable {
						t.Errorf("session %d simulate: %v", i, err)
					}
				}
			case 3: // mid-frame disconnect
				conn, err := net.Dial("tcp", tcpAddr)
				if err != nil {
					t.Error(err)
					return
				}
				tc := &truncateConn{Conn: conn, Budget: 5 + rng.Intn(10)}
				xpowerd.WriteFrame(tc, &xpowerd.Request{Op: xpowerd.OpEstimate, Workload: "accumulate"})
			case 4: // oversized frame
				conn, err := net.Dial("tcp", tcpAddr)
				if err != nil {
					t.Error(err)
					return
				}
				defer conn.Close()
				var hdr [4]byte
				binary.BigEndian.PutUint32(hdr[:], xpowerd.DefaultMaxFrame+1)
				conn.Write(hdr[:])
				conn.SetReadDeadline(time.Now().Add(10 * time.Second))
				xpowerd.ReadFrame(conn, 0) // parting protocol error, then close
			case 5: // client gives up mid-flight
				client, err := xpowerd.Dial(addr, 5*time.Second)
				if err != nil {
					t.Error(err)
					return
				}
				defer client.Close()
				cctx, ccancel := context.WithTimeout(context.Background(), time.Duration(1+rng.Intn(10))*time.Millisecond)
				defer ccancel()
				client.Do(cctx, &xpowerd.Request{Op: xpowerd.OpEstimate, Workload: "accumulate", Fast: true})
			case 6: // poisoned request (hook panics server-side)
				client, err := xpowerd.Dial(addr, 5*time.Second)
				if err != nil {
					t.Error(err)
					return
				}
				defer client.Close()
				_, err = client.Do(context.Background(), &xpowerd.Request{
					Op: xpowerd.OpEstimate, Workload: "poisoned",
				})
				var we *xpowerd.WireError
				if !errors.As(err, &we) {
					t.Errorf("session %d poisoned request: %v, want a wire error", i, err)
					return
				}
				if we.Code != xpowerd.ErrCodeFault && we.Code != xpowerd.ErrCodeUnavailable {
					t.Errorf("session %d poisoned request code %q", i, we.Code)
				}
			}
		}(i)
	}
	wg.Wait()

	// The daemon survived the abuse; health must still answer.
	client, err := xpowerd.Dial(tcpAddr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(context.Background(), &xpowerd.Request{Op: xpowerd.OpHealth})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Health.State != "serving" {
		t.Fatalf("health after soak: %+v", resp.Health)
	}
	client.Close()

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drain after soak returned %v, want nil", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Serve did not return after drain")
	}

	// Every session, worker, and accept goroutine must be gone. Allow
	// the runtime a moment to unwind stacks (same settle idiom as the
	// chaos harness tests).
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: baseline %d, now %d\n%s",
				baseline, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(50 * time.Millisecond)
	}
}
