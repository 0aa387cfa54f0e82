package xpowerd

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"time"
)

// Config describes one daemon instance. The zero value of every knob
// has a safe default (see withDefaults); at least one of TCPAddr /
// UnixPath must be set before Listen.
type Config struct {
	// TCPAddr is the TCP listen address ("" disables TCP).
	TCPAddr string
	// UnixPath is the unix-socket path ("" disables the socket). A
	// stale socket file from a crashed predecessor is removed on bind.
	UnixPath string
	// Workers bounds concurrent pipeline runs (0 = GOMAXPROCS). A run
	// is not one core's work: an estimate's reference pass keeps the
	// ISS and its stream's consumer on two goroutines that share the
	// walks (rtlpower.RunStreamed), so one run may use two cores while
	// the other is idle.
	Workers int
	// QueueDepth is the admission queue in front of the workers;
	// requests beyond Workers+QueueDepth are shed with "unavailable"
	// (0 = 2x workers, <0 = no queue).
	QueueDepth int
	// MaxConns bounds open sessions; connections beyond it receive one
	// "unavailable" frame and are closed (0 = 64).
	MaxConns int
	// MaxFrame caps request/response frames (0 = DefaultMaxFrame).
	MaxFrame uint32
	// ReadTimeout is the per-frame read deadline: a peer that cannot
	// deliver a whole frame within it (slowloris, stalled link, or an
	// idle session) is disconnected (0 = 30s).
	ReadTimeout time.Duration
	// WriteTimeout is the per-response write deadline (0 = 30s).
	WriteTimeout time.Duration
	// DrainTimeout bounds graceful drain: after stop-accept, in-flight
	// sessions get this long to finish before their contexts are
	// force-cancelled (0 = 15s).
	DrainTimeout time.Duration
	// Logf receives operational log lines (nil = silent).
	Logf func(format string, args ...any)
	// RequestHook, when non-nil, observes every decoded work request
	// before it runs. It is the chaos-injection seam (internal/chaos
	// uses it to poison selected requests); leave nil in production.
	// It runs inside the session's panic containment, so a panicking
	// hook costs one failed response, not the daemon.
	RequestHook func(*Request)
}

func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 2 * c.Workers
	}
	if c.MaxConns <= 0 {
		c.MaxConns = 64
	}
	if c.MaxFrame == 0 {
		c.MaxFrame = DefaultMaxFrame
	}
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = 30 * time.Second
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 30 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 15 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// ErrDrainForced is returned by Serve when the drain deadline expired
// with sessions still in flight and they had to be force-cancelled. The
// daemon still exits with every goroutine accounted for; the error only
// reports that some client saw a cancelled fault instead of its result.
var ErrDrainForced = errors.New("xpowerd: drain deadline exceeded, in-flight sessions force-cancelled")

// Server is one daemon instance: accept loops over the configured
// listeners, a session per connection, and the shared worker pool.
//
// Lifecycle: New -> Listen -> Serve(ctx). Cancelling ctx starts the
// drain state machine: stop accepting -> shed new requests -> let
// in-flight sessions finish under DrainTimeout -> force-cancel
// stragglers -> close the pool. Serve returns nil on a clean drain.
type Server struct {
	cfg       Config
	pool      *Pool
	health    *healthState
	listeners []net.Listener

	mu       sync.Mutex
	sessions map[*session]struct{}
}

// New builds a server; call Listen before Serve.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	return &Server{
		cfg:      cfg,
		health:   &healthState{},
		sessions: make(map[*session]struct{}),
	}
}

// Listen binds the configured TCP and/or unix listeners. It is split
// from Serve so callers (and tests) can learn the bound addresses —
// e.g. with TCPAddr "127.0.0.1:0" — before any client dials.
func (s *Server) Listen() error {
	if s.cfg.TCPAddr == "" && s.cfg.UnixPath == "" {
		return fmt.Errorf("xpowerd: no listen address configured")
	}
	if s.cfg.TCPAddr != "" {
		l, err := net.Listen("tcp", s.cfg.TCPAddr)
		if err != nil {
			return fmt.Errorf("xpowerd: listen tcp: %w", err)
		}
		s.listeners = append(s.listeners, l)
	}
	if s.cfg.UnixPath != "" {
		// A previous instance that died without cleanup leaves a stale
		// socket file that would fail the bind; removing a path nothing
		// is listening on is safe.
		os.Remove(s.cfg.UnixPath)
		l, err := net.Listen("unix", s.cfg.UnixPath)
		if err != nil {
			s.closeListeners()
			return fmt.Errorf("xpowerd: listen unix: %w", err)
		}
		s.listeners = append(s.listeners, l)
	}
	return nil
}

// Addrs returns the bound listener addresses (valid after Listen).
func (s *Server) Addrs() []net.Addr {
	var out []net.Addr
	for _, l := range s.listeners {
		out = append(out, l.Addr())
	}
	return out
}

// Health returns a live server snapshot (also served as the health op).
func (s *Server) Health() *Health { return s.health.snapshot(s.pool) }

func (s *Server) closeListeners() {
	for _, l := range s.listeners {
		l.Close()
	}
}

// Serve runs the daemon until ctx is cancelled, then drains. It returns
// nil when every in-flight session finished within DrainTimeout,
// ErrDrainForced when stragglers were force-cancelled, and a listener
// error if accepting failed outright. In every case all session and
// worker goroutines have exited by the time Serve returns.
func (s *Server) Serve(ctx context.Context) error {
	if len(s.listeners) == 0 {
		return fmt.Errorf("xpowerd: Serve before Listen")
	}
	s.pool = NewPool(s.cfg.Workers, s.cfg.QueueDepth)

	// Session contexts are NOT derived from ctx: cancelling ctx means
	// "begin drain", and in-flight sessions must be allowed to finish.
	// Only the drain deadline pulls this trigger.
	sessCtx, forceCancel := context.WithCancel(context.Background())
	defer forceCancel()

	var acceptWG, sessWG sync.WaitGroup
	for _, l := range s.listeners {
		acceptWG.Add(1)
		go func(l net.Listener) {
			defer acceptWG.Done()
			s.acceptLoop(l, sessCtx, &sessWG)
		}(l)
	}
	s.cfg.Logf("xpowerd: serving on %v (workers=%d queue=%d maxconns=%d)",
		s.Addrs(), s.cfg.Workers, s.cfg.QueueDepth, s.cfg.MaxConns)

	<-ctx.Done()

	// Drain state machine.
	s.health.draining.Store(true)
	s.closeListeners()
	acceptWG.Wait()
	s.cfg.Logf("xpowerd: draining: %d session(s) in flight, deadline %v",
		int(s.health.sessions.Load()), s.cfg.DrainTimeout)

	// Idle sessions (parked in a frame read) have nothing in flight;
	// closing their connections releases them immediately. Busy ones
	// notice the drain flag after writing their current response.
	s.mu.Lock()
	for sess := range s.sessions {
		if !sess.busy.Load() {
			sess.conn.Close()
		}
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		sessWG.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-time.After(s.cfg.DrainTimeout):
		err = ErrDrainForced
		forceCancel()
		s.mu.Lock()
		n := len(s.sessions)
		for sess := range s.sessions {
			sess.conn.Close()
		}
		s.mu.Unlock()
		s.cfg.Logf("xpowerd: drain deadline exceeded, force-cancelling %d session(s)", n)
		<-done
	}
	s.pool.Close()
	if err == nil {
		s.cfg.Logf("xpowerd: drain complete")
	}
	return err
}

// acceptLoop admits connections on one listener until it closes,
// shedding connections beyond MaxConns with one unavailable frame.
func (s *Server) acceptLoop(l net.Listener, sessCtx context.Context, sessWG *sync.WaitGroup) {
	for {
		conn, err := l.Accept()
		if err != nil {
			if s.health.draining.Load() || errors.Is(err, net.ErrClosed) {
				return
			}
			// Transient accept failure (fd exhaustion and friends):
			// back off briefly instead of spinning, and keep serving
			// the sessions we already have.
			s.cfg.Logf("xpowerd: accept: %v", err)
			time.Sleep(10 * time.Millisecond)
			continue
		}
		sess := &session{srv: s, conn: conn}
		if !s.register(sess) {
			s.health.shed.Add(1)
			// Shed without a session goroutine lingering: one best-
			// effort unavailable frame under the write deadline.
			go func() {
				conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
				WriteFrame(conn, &Response{Status: StatusFailed, Error: &WireError{
					Code: ErrCodeUnavailable, Msg: "connection limit reached", PC: -1, Transient: true,
				}})
				conn.Close()
			}()
			continue
		}
		sessWG.Add(1)
		go func() {
			defer sessWG.Done()
			sess.serve(sessCtx)
		}()
	}
}

// register admits a session under the connection limit; false means
// shed (limit reached or draining).
func (s *Server) register(sess *session) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.health.draining.Load() || len(s.sessions) >= s.cfg.MaxConns {
		return false
	}
	s.sessions[sess] = struct{}{}
	s.health.sessions.Add(1)
	return true
}

func (s *Server) unregister(sess *session) {
	s.mu.Lock()
	delete(s.sessions, sess)
	s.mu.Unlock()
	s.health.sessions.Add(-1)
}
