package xpowerd_test

import (
	"net"
	"sync"
	"time"

	"xtenergy/internal/xpowerd"
)

// Network- and request-level injection for the daemon tests. The
// connection wrappers sabotage the client side of a session (the daemon
// must survive whatever a peer does to its half of the socket); the
// request hooks plug into xpowerd.Config.RequestHook, the server-side
// seam, to poison selected requests without touching production code.

// truncateConn cuts the connection after writing Budget more bytes:
// the daemon sees a frame header whose payload never fully arrives (a
// mid-frame disconnect). Reads pass through untouched.
type truncateConn struct {
	net.Conn
	// Budget is the number of bytes still allowed out.
	Budget int
}

// Write forwards at most the remaining budget, then closes the
// connection mid-stream.
func (c *truncateConn) Write(p []byte) (int, error) {
	if c.Budget <= 0 {
		c.Conn.Close()
		return 0, net.ErrClosed
	}
	if len(p) <= c.Budget {
		n, err := c.Conn.Write(p)
		c.Budget -= n
		return n, err
	}
	n, _ := c.Conn.Write(p[:c.Budget])
	c.Budget = 0
	c.Conn.Close()
	return n, net.ErrClosed
}

// slowConn trickles writes one byte per Delay — the slowloris client a
// per-frame read deadline exists to disconnect.
type slowConn struct {
	net.Conn
	// Delay is the pause before each byte.
	Delay time.Duration
}

// Write emits p one byte at a time, pausing Delay before each.
func (c *slowConn) Write(p []byte) (int, error) {
	for i := range p {
		time.Sleep(c.Delay)
		if _, err := c.Conn.Write(p[i : i+1]); err != nil {
			return i, err
		}
	}
	return len(p), nil
}

// panicOnWorkload returns an xpowerd request hook that panics whenever
// a request names the given workload — the poisoned program whose
// session the daemon must contain without going down.
func panicOnWorkload(name string) func(*xpowerd.Request) {
	return func(req *xpowerd.Request) {
		if req.Workload == name {
			panic("chaos: poisoned request for workload " + name)
		}
	}
}

// holdRequests returns an xpowerd request hook that blocks every
// matched request until Release is called (or forever when the hook is
// released with nil channels). Saturating the worker pool with held
// requests is how the backpressure tests force the admission queue
// full.
type holdRequests struct {
	mu      sync.Mutex
	release chan struct{}
	held    int
}

// newHoldRequests builds a hook-bearing holder.
func newHoldRequests() *holdRequests {
	return &holdRequests{release: make(chan struct{})}
}

// Hook is the xpowerd.Config.RequestHook: it parks matched requests on
// the holder's release channel.
func (h *holdRequests) Hook(match string) func(*xpowerd.Request) {
	return func(req *xpowerd.Request) {
		if match != "" && req.Workload != match {
			return
		}
		h.mu.Lock()
		h.held++
		ch := h.release
		h.mu.Unlock()
		<-ch
	}
}

// Held reports how many requests are currently parked (monotonic count
// of arrivals; parked requests only leave on Release).
func (h *holdRequests) Held() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.held
}

// Release lets every parked (and future) request through.
func (h *holdRequests) Release() {
	h.mu.Lock()
	defer h.mu.Unlock()
	select {
	case <-h.release:
	default:
		close(h.release)
	}
}
