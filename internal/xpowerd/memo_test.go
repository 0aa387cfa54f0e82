package xpowerd_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"xtenergy/internal/engine"
	"xtenergy/internal/xpowerd"
)

// freshEngine routes the daemon ops through a new memory-only engine
// for the duration of the test, so counter assertions see only this
// test's traffic.
func freshEngine(t *testing.T) *engine.Engine {
	t.Helper()
	e, err := engine.New(engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	xpowerd.SetEngine(e)
	t.Cleanup(func() { xpowerd.SetEngine(nil) })
	return e
}

// TestDaemonCoalescesThunderingHerd drives N concurrent identical
// estimate requests over N connections and asserts the engine ran the
// pipeline exactly once — every other request was coalesced onto the
// in-flight computation or served from memory — and that all N
// responses are byte-identical.
func TestDaemonCoalescesThunderingHerd(t *testing.T) {
	const n = 8
	e := freshEngine(t)
	// Admit the whole herd at once: coalescing happens in the engine,
	// so every request must reach a worker concurrently rather than be
	// shed by the admission queue.
	addr, _ := startServer(t, func(cfg *xpowerd.Config) {
		cfg.Workers = n
		cfg.QueueDepth = n
	})

	var wg sync.WaitGroup
	outputs := make([]string, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			client, err := xpowerd.Dial(addr, 5*time.Second)
			if err != nil {
				errs[i] = err
				return
			}
			defer client.Close()
			resp, err := client.Do(context.Background(), &xpowerd.Request{
				Op: xpowerd.OpEstimate, Workload: "accumulate", Fast: true,
			})
			if err != nil {
				errs[i] = err
				return
			}
			outputs[i] = resp.Output
		}(i)
	}
	wg.Wait()

	for i := range outputs {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if outputs[i] == "" || outputs[i] != outputs[0] {
			t.Fatalf("request %d output differs:\n%s\nvs\n%s", i, outputs[i], outputs[0])
		}
	}
	c := e.Counters()
	if c.Misses != 1 {
		t.Fatalf("herd of %d identical requests cost %d pipeline executions, want exactly 1 (counters %+v)", n, c.Misses, c)
	}
	if c.Coalesced+c.MemHits != n-1 {
		t.Fatalf("coalesced %d + mem hits %d != %d (counters %+v)", c.Coalesced, c.MemHits, n-1, c)
	}

	// The health op surfaces the same counters on the wire.
	client := dialClient(t, addr)
	resp, err := client.Do(context.Background(), &xpowerd.Request{Op: xpowerd.OpHealth})
	if err != nil {
		t.Fatal(err)
	}
	m := resp.Health.Memo
	if m == nil {
		t.Fatal("health response carries no memo counters")
	}
	if m.Misses != 1 || m.Coalesced+m.MemHits != n-1 {
		t.Fatalf("wire memo counters %+v disagree with the herd", m)
	}
}

// TestDaemonNoCacheBypassesStore sends the same request cached, then
// with no_cache: the bypass must leave the store untouched (no reads,
// no writes) while still answering byte-identically.
func TestDaemonNoCacheBypassesStore(t *testing.T) {
	e := freshEngine(t)
	addr, _ := startServer(t, nil)
	client := dialClient(t, addr)

	req := &xpowerd.Request{Op: xpowerd.OpSimulate, Workload: "gcd", Vars: true}
	warm, err := client.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	before := e.Counters()
	if before.Misses != 1 {
		t.Fatalf("priming request: counters %+v", before)
	}

	uncached := *req
	uncached.NoCache = true
	resp, err := client.Do(context.Background(), &uncached)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Output != warm.Output {
		t.Fatalf("no_cache output differs from cached output:\n%s\nvs\n%s", resp.Output, warm.Output)
	}
	if after := e.Counters(); after != before {
		t.Fatalf("no_cache touched the store: %+v -> %+v", before, after)
	}
}

// TestConcurrentRegistryRequestsByteIdentical sends estimate, lint and
// simulate requests on one registry workload at once, each with
// no_cache, so that every one runs its pipeline over the workload the
// registry's name index hands every request. Under -race this shows
// that no request writes that shared workload, and each answer must
// equal the same request's serial answer byte for byte.
func TestConcurrentRegistryRequestsByteIdentical(t *testing.T) {
	const copies = 3
	reqs := []*xpowerd.Request{
		{Op: xpowerd.OpEstimate, Workload: "des", Fast: true, NoCache: true},
		{Op: xpowerd.OpLint, Workload: "des", Notes: true, NoCache: true},
		{Op: xpowerd.OpSimulate, Workload: "des", Vars: true, NoCache: true},
	}
	addr, _ := startServer(t, func(cfg *xpowerd.Config) {
		cfg.Workers = len(reqs) * copies
		cfg.QueueDepth = len(reqs) * copies
	})

	client := dialClient(t, addr)
	serial := make([]*xpowerd.Response, len(reqs))
	for i, req := range reqs {
		resp, err := client.Do(context.Background(), req)
		if err != nil {
			t.Fatalf("serial %s: %v", req.Op, err)
		}
		serial[i] = resp
	}

	var wg sync.WaitGroup
	got := make([]*xpowerd.Response, len(reqs)*copies)
	errs := make([]error, len(got))
	for k := range got {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			c, err := xpowerd.Dial(addr, 5*time.Second)
			if err != nil {
				errs[k] = err
				return
			}
			defer c.Close()
			got[k], errs[k] = c.Do(context.Background(), reqs[k%len(reqs)])
		}(k)
	}
	wg.Wait()
	for k, resp := range got {
		want := serial[k%len(reqs)]
		switch {
		case errs[k] != nil:
			t.Fatalf("concurrent %s: %v", reqs[k%len(reqs)].Op, errs[k])
		case resp.Status != want.Status || resp.Output != want.Output:
			t.Fatalf("concurrent %s (status %d) differs from its serial answer (status %d):\n%s\nvs\n%s",
				reqs[k%len(reqs)].Op, resp.Status, want.Status, resp.Output, want.Output)
		}
	}
}
