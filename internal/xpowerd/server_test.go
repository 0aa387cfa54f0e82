package xpowerd_test

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"xtenergy/internal/rtlpower"
	"xtenergy/internal/xpowerd"
)

// startServer boots a daemon on an ephemeral TCP port and returns its
// address plus a shutdown func that drains it and returns Serve's error.
// Shutdown is idempotent and always runs via t.Cleanup.
func startServer(t *testing.T, mut func(*xpowerd.Config)) (addr string, shutdown func() error) {
	t.Helper()
	cfg := xpowerd.Config{
		TCPAddr:      "127.0.0.1:0",
		DrainTimeout: 10 * time.Second,
	}
	if mut != nil {
		mut(&cfg)
	}
	srv := xpowerd.New(cfg)
	if err := srv.Listen(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx) }()

	var serveErr error
	stopped := false
	shutdown = func() error {
		if !stopped {
			stopped = true
			cancel()
			select {
			case serveErr = <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("Serve did not return after drain")
			}
		}
		return serveErr
	}
	t.Cleanup(func() { shutdown() })
	return srv.Addrs()[0].String(), shutdown
}

func dialClient(t *testing.T, addr string) *xpowerd.Client {
	t.Helper()
	client, err := xpowerd.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return client
}

const tinySource = "start:\n  movi a2, 5\n  movi a3, 7\n  add a2, a2, a3\n  ret\n"

func TestRemoteEstimateByteIdentical(t *testing.T) {
	addr, shutdown := startServer(t, nil)
	client := dialClient(t, addr)

	resp, err := client.Do(context.Background(), &xpowerd.Request{
		Op: xpowerd.OpEstimate, Workload: "accumulate", Fast: true, ProfileWindow: 400,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != xpowerd.StatusOK {
		t.Fatalf("status = %d, want 0", resp.Status)
	}

	// The one-shot xpower CLI renders through the same entry point; the
	// remote output must match it byte for byte.
	local, err := xpowerd.EstimateReport(context.Background(), xpowerd.EstimateParams{
		Workload: "accumulate", Fast: true, ProfileWindow: 400,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Output != local {
		t.Fatalf("remote output differs from local:\n--- remote ---\n%s\n--- local ---\n%s", resp.Output, local)
	}

	// A second request on the same connection must work (sessions are
	// request loops, not one-shots).
	resp2, err := client.Do(context.Background(), &xpowerd.Request{Op: xpowerd.OpHealth})
	if err != nil {
		t.Fatal(err)
	}
	h := resp2.Health
	if h == nil || h.State != "serving" || h.Workers < 1 || h.Requests < 2 {
		t.Fatalf("health snapshot off: %+v", h)
	}
	if h.Kernel != rtlpower.SelectedKernel().String() {
		t.Fatalf("health Kernel = %q, want %q", h.Kernel, rtlpower.SelectedKernel())
	}
	if h.ActiveSessions != 1 {
		t.Fatalf("ActiveSessions = %d, want 1", h.ActiveSessions)
	}

	if err := shutdown(); err != nil {
		t.Fatalf("clean drain returned %v", err)
	}
}

func TestRemoteLintStatusSemantics(t *testing.T) {
	addr, _ := startServer(t, nil)
	client := dialClient(t, addr)

	// Clean workload: status 0.
	resp, err := client.Do(context.Background(), &xpowerd.Request{Op: xpowerd.OpLint, Workload: "rs_gffold"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != xpowerd.StatusOK || !strings.Contains(resp.Output, "clean") {
		t.Fatalf("clean lint: status %d output %q", resp.Status, resp.Output)
	}

	// Stress kernel with warnings: status 1 (degraded, not an error).
	resp, err = client.Do(context.Background(), &xpowerd.Request{Op: xpowerd.OpLint, Workload: "tp01_alu_mix"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != xpowerd.StatusDegraded || resp.Output == "" {
		t.Fatalf("warning lint: status %d output %q", resp.Status, resp.Output)
	}

	local, localStatus, err := xpowerd.LintReport(context.Background(), xpowerd.LintParams{Workload: "tp01_alu_mix"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Output != local || resp.Status != localStatus {
		t.Fatalf("remote lint diverges from local: status %d vs %d", resp.Status, localStatus)
	}
}

func TestRemoteSimulateInlineSource(t *testing.T) {
	addr, _ := startServer(t, nil)
	client := dialClient(t, addr)
	resp, err := client.Do(context.Background(), &xpowerd.Request{
		Op: xpowerd.OpSimulate, Source: tinySource, SourceName: "tiny.s",
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != xpowerd.StatusOK || !strings.Contains(resp.Output, "workload tiny.s") {
		t.Fatalf("simulate: status %d output %q", resp.Status, resp.Output)
	}
}

func TestInvalidRequestsGetTypedErrors(t *testing.T) {
	addr, _ := startServer(t, nil)
	client := dialClient(t, addr)
	cases := []struct {
		name string
		req  *xpowerd.Request
	}{
		{"unknown op", &xpowerd.Request{Op: "explode"}},
		{"unknown workload", &xpowerd.Request{Op: xpowerd.OpEstimate, Workload: "no-such"}},
		{"profile without window", &xpowerd.Request{Op: xpowerd.OpProfile, Workload: "gcd"}},
		{"estimate without workload", &xpowerd.Request{Op: xpowerd.OpEstimate}},
		{"bad lint code", &xpowerd.Request{Op: xpowerd.OpLint, Workload: "gcd", Disable: []string{"bogus"}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := client.Do(context.Background(), tc.req)
			var we *xpowerd.WireError
			if !errors.As(err, &we) {
				t.Fatalf("err = %v, want a WireError", err)
			}
			if we.Code != xpowerd.ErrCodeInvalid {
				t.Fatalf("code = %q, want invalid (%s)", we.Code, we.Msg)
			}
			if resp.Status != xpowerd.StatusFailed {
				t.Fatalf("status = %d, want 2", resp.Status)
			}
		})
	}
}

// TestOversizedResponseFailsInCap pins the response side of the frame
// cap: a report that encodes past Config.MaxFrame comes back as an
// invalid-request failure naming its size and the cap, and the session
// stays in frame sync for the next request.
func TestOversizedResponseFailsInCap(t *testing.T) {
	addr, _ := startServer(t, nil)
	client := dialClient(t, addr)

	// A one-cycle profile window of rs_base renders about 4.4 MB.
	resp, err := client.Do(context.Background(), &xpowerd.Request{
		Op: xpowerd.OpEstimate, Workload: "rs_base", Fast: true, ProfileWindow: 1, NoCache: true,
	})
	var we *xpowerd.WireError
	if !errors.As(err, &we) {
		t.Fatalf("err = %v, want a WireError", err)
	}
	if we.Code != xpowerd.ErrCodeInvalid || !strings.Contains(we.Msg, fmt.Sprintf("cap %d", xpowerd.DefaultMaxFrame)) {
		t.Fatalf("oversized response: code %q msg %q, want invalid naming the cap", we.Code, we.Msg)
	}
	if resp.Status != xpowerd.StatusFailed {
		t.Fatalf("status = %d, want 2", resp.Status)
	}

	hresp, err := client.Do(context.Background(), &xpowerd.Request{Op: xpowerd.OpHealth})
	if err != nil || hresp.Health == nil {
		t.Fatalf("session out of frame sync after an oversized response: %v", err)
	}
}

// TestEstimateShardsFieldIgnored pins that one request cannot fan out
// past the worker pool: a raw "shards" field on the wire changes
// neither the report nor the handful of goroutines an estimate runs on.
func TestEstimateShardsFieldIgnored(t *testing.T) {
	addr, _ := startServer(t, nil)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	do := func(req map[string]any) xpowerd.Response {
		t.Helper()
		if err := xpowerd.WriteFrame(conn, req); err != nil {
			t.Fatal(err)
		}
		payload, err := xpowerd.ReadFrame(conn, 0)
		if err != nil {
			t.Fatal(err)
		}
		var resp xpowerd.Response
		if err := json.Unmarshal(payload, &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}

	req := map[string]any{"op": "estimate", "workload": "accumulate", "fast": true, "no_cache": true}
	plain := do(req)
	if plain.Status != xpowerd.StatusOK || plain.Output == "" {
		t.Fatalf("plain estimate: status %d, error %v", plain.Status, plain.Error)
	}

	req["shards"] = 1 << 20
	base := runtime.NumGoroutine()
	peak := base
	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if n := runtime.NumGoroutine(); n > peak {
				peak = n
			}
			runtime.Gosched()
		}
	}()
	sharded := do(req)
	close(stop)
	<-sampled

	if sharded.Status != plain.Status || sharded.Output != plain.Output {
		t.Fatalf("shards changed the response: status %d vs %d, outputs equal: %v",
			sharded.Status, plain.Status, sharded.Output == plain.Output)
	}
	// The sampler itself is one of the goroutines counted.
	if grow := peak - base - 1; grow > 16 {
		t.Fatalf("goroutines grew by %d during one estimate, want <= 16", grow)
	}
}

func TestMalformedFramesAndRecovery(t *testing.T) {
	addr, _ := startServer(t, nil)

	// Oversized declaration: one protocol-error response, then the
	// session is closed (the stream cannot be trusted any more).
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 1<<31)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	payload, err := xpowerd.ReadFrame(conn, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(payload), xpowerd.ErrCodeProtocol) {
		t.Fatalf("oversized frame response = %s", payload)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := xpowerd.ReadFrame(conn, 0); err == nil {
		t.Fatal("session stayed open after an oversized frame")
	}

	// Undecodable JSON in a well-formed frame: protocol error, but the
	// session survives (frame boundaries are intact).
	conn2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	binary.BigEndian.PutUint32(hdr[:], 1)
	conn2.Write(hdr[:])
	conn2.Write([]byte("{"))
	payload, err = xpowerd.ReadFrame(conn2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(payload), "undecodable") {
		t.Fatalf("malformed JSON response = %s", payload)
	}
	if err := xpowerd.WriteFrame(conn2, &xpowerd.Request{Op: xpowerd.OpHealth}); err != nil {
		t.Fatal(err)
	}
	payload, err = xpowerd.ReadFrame(conn2, 0)
	if err != nil {
		t.Fatalf("session did not survive an undecodable request: %v", err)
	}
	if !strings.Contains(string(payload), "serving") {
		t.Fatalf("health after bad JSON = %s", payload)
	}

	// Mid-frame disconnect: the daemon just drops the session.
	conn3, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	tc := &truncateConn{Conn: conn3, Budget: 6}
	xpowerd.WriteFrame(tc, &xpowerd.Request{Op: xpowerd.OpEstimate, Workload: "accumulate"})

	// The daemon must still be healthy after all three abuses.
	client := dialClient(t, addr)
	if _, err := client.Do(context.Background(), &xpowerd.Request{Op: xpowerd.OpHealth}); err != nil {
		t.Fatalf("daemon unhealthy after malformed frames: %v", err)
	}
}

func TestSlowlorisDisconnected(t *testing.T) {
	addr, _ := startServer(t, func(c *xpowerd.Config) {
		c.ReadTimeout = 150 * time.Millisecond
	})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	slow := &slowConn{Conn: conn, Delay: 30 * time.Millisecond}
	// ~25 bytes at 30ms/byte can never beat a 150ms frame deadline.
	go xpowerd.WriteFrame(slow, &xpowerd.Request{Op: xpowerd.OpHealth})

	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := xpowerd.ReadFrame(conn, 0); err == nil {
		t.Fatal("server answered a slowloris client instead of cutting it off")
	}

	// The daemon still serves prompt clients.
	client := dialClient(t, addr)
	if _, err := client.Do(context.Background(), &xpowerd.Request{Op: xpowerd.OpHealth}); err != nil {
		t.Fatalf("daemon unhealthy after slowloris: %v", err)
	}
}

func TestConnectionLimitSheds(t *testing.T) {
	addr, _ := startServer(t, func(c *xpowerd.Config) { c.MaxConns = 1 })

	// First client occupies the one slot (a round-trip guarantees it is
	// registered before the second dial).
	client := dialClient(t, addr)
	if _, err := client.Do(context.Background(), &xpowerd.Request{Op: xpowerd.OpHealth}); err != nil {
		t.Fatal(err)
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	payload, err := xpowerd.ReadFrame(conn, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(payload), xpowerd.ErrCodeUnavailable) ||
		!strings.Contains(string(payload), `"transient":true`) {
		t.Fatalf("over-limit connection got %s, want transient unavailable", payload)
	}
	if _, err := xpowerd.ReadFrame(conn, 0); err == nil {
		t.Fatal("over-limit connection was kept open")
	}
}

func TestBackpressureShedsRequests(t *testing.T) {
	hold := newHoldRequests()
	addr, _ := startServer(t, func(c *xpowerd.Config) {
		c.Workers = 1
		c.QueueDepth = -1 // no queue: the single worker is the capacity
		c.RequestHook = hold.Hook("gcd")
	})

	// Park a request on the lone worker.
	heldResp := make(chan error, 1)
	go func() {
		client, err := xpowerd.Dial(addr, 5*time.Second)
		if err != nil {
			heldResp <- err
			return
		}
		defer client.Close()
		resp, err := client.Do(context.Background(), &xpowerd.Request{
			Op: xpowerd.OpSimulate, Workload: "gcd",
		})
		if err == nil && resp.Status != xpowerd.StatusOK {
			err = errors.New("held request finished with non-zero status")
		}
		heldResp <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for hold.Held() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if hold.Held() != 1 {
		t.Fatal("held request never reached the worker")
	}

	// Saturated pool: a second session's work request is shed fast.
	client := dialClient(t, addr)
	start := time.Now()
	resp, err := client.Do(context.Background(), &xpowerd.Request{
		Op: xpowerd.OpSimulate, Workload: "accumulate",
	})
	var we *xpowerd.WireError
	if !errors.As(err, &we) || we.Code != xpowerd.ErrCodeUnavailable || !we.Transient {
		t.Fatalf("saturated request: err %v, want transient unavailable", err)
	}
	if resp.Status != xpowerd.StatusFailed {
		t.Fatalf("shed status = %d, want 2", resp.Status)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("load shedding took %v; it must not wait on the pipeline", d)
	}

	// Health answers inline even while the pool is saturated.
	hresp, err := client.Do(context.Background(), &xpowerd.Request{Op: xpowerd.OpHealth})
	if err != nil {
		t.Fatal(err)
	}
	if hresp.Health.ActiveJobs != 1 || hresp.Health.Shed < 1 {
		t.Fatalf("health under saturation: %+v", hresp.Health)
	}

	hold.Release()
	if err := <-heldResp; err != nil {
		t.Fatalf("held request did not complete after release: %v", err)
	}
}

func TestPanicContainment(t *testing.T) {
	addr, shutdown := startServer(t, func(c *xpowerd.Config) {
		c.RequestHook = panicOnWorkload("gcd")
	})
	client := dialClient(t, addr)

	resp, err := client.Do(context.Background(), &xpowerd.Request{Op: xpowerd.OpEstimate, Workload: "gcd"})
	var we *xpowerd.WireError
	if !errors.As(err, &we) {
		t.Fatalf("err = %v, want a WireError", err)
	}
	if we.Code != xpowerd.ErrCodeFault || we.FaultKind != "panic" {
		t.Fatalf("poisoned request: code %q kind %q, want fault/panic", we.Code, we.FaultKind)
	}
	if resp.Status != xpowerd.StatusFailed {
		t.Fatalf("status = %d, want 2", resp.Status)
	}

	// Same session, same daemon: an untainted request still succeeds,
	// and the fault shows up in the health counters.
	resp, err = client.Do(context.Background(), &xpowerd.Request{Op: xpowerd.OpEstimate, Workload: "accumulate", Fast: true})
	if err != nil || resp.Status != xpowerd.StatusOK {
		t.Fatalf("daemon did not survive the poisoned request: %v (status %d)", err, resp.Status)
	}
	hresp, err := client.Do(context.Background(), &xpowerd.Request{Op: xpowerd.OpHealth})
	if err != nil {
		t.Fatal(err)
	}
	if hresp.Health.Faults["panic"] != 1 {
		t.Fatalf("fault counters = %v, want panic:1", hresp.Health.Faults)
	}
	if err := shutdown(); err != nil {
		t.Fatalf("drain after contained panic returned %v", err)
	}
}

func TestGracefulDrainLetsInflightFinish(t *testing.T) {
	hold := newHoldRequests()
	addr, shutdown := startServer(t, func(c *xpowerd.Config) {
		c.Workers = 1
		c.RequestHook = hold.Hook("gcd")
	})

	inflight := make(chan *xpowerd.Response, 1)
	inflightErr := make(chan error, 1)
	go func() {
		client, err := xpowerd.Dial(addr, 5*time.Second)
		if err != nil {
			inflightErr <- err
			return
		}
		defer client.Close()
		resp, err := client.Do(context.Background(), &xpowerd.Request{Op: xpowerd.OpSimulate, Workload: "gcd"})
		inflight <- resp
		inflightErr <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for hold.Held() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if hold.Held() != 1 {
		t.Fatal("request never reached the worker")
	}

	// Begin drain while the request is in flight, then let it finish.
	drained := make(chan error, 1)
	go func() { drained <- shutdown() }()
	time.Sleep(100 * time.Millisecond) // let the drain state machine engage
	hold.Release()

	if err := <-drained; err != nil {
		t.Fatalf("drain with a finishing request returned %v, want nil", err)
	}
	if err := <-inflightErr; err != nil {
		t.Fatalf("in-flight request failed during graceful drain: %v", err)
	}
	resp := <-inflight
	if resp.Status != xpowerd.StatusOK || resp.Output == "" {
		t.Fatalf("in-flight response incomplete: status %d output %q", resp.Status, resp.Output)
	}

	// New connections are refused once draining.
	if conn, err := net.Dial("tcp", addr); err == nil {
		conn.Close()
		t.Fatal("daemon still accepting after drain")
	}
}

func TestForcedDrainAfterDeadline(t *testing.T) {
	hold := newHoldRequests()
	addr, shutdown := startServer(t, func(c *xpowerd.Config) {
		c.Workers = 1
		c.DrainTimeout = 100 * time.Millisecond
		c.RequestHook = hold.Hook("gcd")
	})

	reqErr := make(chan error, 1)
	go func() {
		client, err := xpowerd.Dial(addr, 5*time.Second)
		if err != nil {
			reqErr <- err
			return
		}
		defer client.Close()
		_, err = client.Do(context.Background(), &xpowerd.Request{Op: xpowerd.OpSimulate, Workload: "gcd"})
		reqErr <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for hold.Held() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if hold.Held() != 1 {
		t.Fatal("request never reached the worker")
	}

	// The hook never yields within the deadline: drain must force.
	drained := make(chan error, 1)
	go func() { drained <- shutdown() }()
	time.Sleep(300 * time.Millisecond) // well past DrainTimeout
	hold.Release()                     // the wedged op finally returns; the pool can close

	if err := <-drained; !errors.Is(err, xpowerd.ErrDrainForced) {
		t.Fatalf("drain = %v, want ErrDrainForced", err)
	}
	if err := <-reqErr; err == nil {
		t.Fatal("force-cancelled client reported success")
	}
}
