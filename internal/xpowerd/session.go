package xpowerd

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"xtenergy/internal/iss"
)

// session is one connection's request loop: read a frame under the
// read deadline, run the op (work ops through the bounded pool, health
// inline), write the response under the write deadline, repeat. Every
// failure mode — malformed frame, poisoned program, panicking pipeline,
// mid-flight disconnect — ends at worst this one session.
type session struct {
	srv  *Server
	conn net.Conn
	// busy is true while a request is between decode and response
	// write; the drain logic uses it to tell sessions it may close
	// immediately (idle) from sessions it must wait for.
	busy atomic.Bool
}

// serve runs the request loop. ctx is the server's session context:
// it ends only when the drain deadline force-cancels stragglers.
func (ss *session) serve(ctx context.Context) {
	defer ss.srv.unregister(ss)
	defer ss.conn.Close()
	br := bufio.NewReaderSize(ss.conn, 4<<10)
	for {
		// Per-frame read deadline: a peer that trickles bytes
		// (slowloris) or goes silent is cut off; an idle-but-healthy
		// client simply reconnects for its next command.
		ss.conn.SetReadDeadline(time.Now().Add(ss.srv.cfg.ReadTimeout))
		payload, err := ReadFrame(br, ss.srv.cfg.MaxFrame)
		if err != nil {
			// Protocol violations get a parting diagnostic; plain
			// disconnects and timeouts do not warrant a write to a
			// peer that is gone or hostile.
			if errors.Is(err, ErrFrameTooLarge) || errors.Is(err, ErrFrameEmpty) {
				ss.write(&Response{Status: StatusFailed, Error: &WireError{
					Code: ErrCodeProtocol, Msg: err.Error(), PC: -1,
				}})
			}
			return
		}
		ss.busy.Store(true)
		resp := ss.handle(ctx, payload)
		werr := ss.write(resp)
		ss.busy.Store(false)
		if werr != nil {
			return
		}
		// A drain that began while this request ran let it finish;
		// the session ends here instead of parking in another read.
		if ss.srv.health.draining.Load() {
			return
		}
	}
}

// write sends resp as one frame under the write deadline. A response
// that encodes past the frame cap is replaced by an invalid-request
// failure naming both sizes: the peer's ReadFrame would reject the
// oversized frame from its header and leave the payload unread in the
// stream, so the session answers in-cap and stays in sync.
func (ss *session) write(resp *Response) error {
	payload, err := json.Marshal(resp)
	if err != nil {
		return err
	}
	if max := ss.srv.cfg.MaxFrame; uint64(len(payload)) > uint64(max) {
		payload, err = json.Marshal(&Response{Status: StatusFailed, Error: &WireError{
			Code: ErrCodeInvalid, PC: -1,
			Msg: fmt.Sprintf("%v: response encodes to %d bytes, cap %d", ErrFrameTooLarge, len(payload), max),
		}})
		if err != nil {
			return err
		}
	}
	ss.conn.SetWriteDeadline(time.Now().Add(ss.srv.cfg.WriteTimeout))
	return writePayload(ss.conn, payload)
}

// handle decodes and dispatches one request. The deferred recover is
// the session-level panic containment: whatever goes wrong composing
// the response, the daemon answers with a typed panic fault and lives.
func (ss *session) handle(ctx context.Context, payload []byte) (resp *Response) {
	defer func() {
		if r := recover(); r != nil {
			err := &iss.Fault{Kind: iss.FaultPanic, PC: -1, Msg: fmt.Sprint(r)}
			ss.srv.health.countFault(err)
			resp = &Response{Status: StatusFailed, Error: wireError(ErrCodeInternal, err)}
		}
	}()
	ss.srv.health.requests.Add(1)
	var req Request
	if err := json.Unmarshal(payload, &req); err != nil {
		return &Response{Status: StatusFailed, Error: &WireError{
			Code: ErrCodeProtocol, Msg: fmt.Sprintf("undecodable request: %v", err), PC: -1,
		}}
	}
	switch req.Op {
	case OpHealth:
		// Health bypasses the pool: it must answer exactly when the
		// pool is too saturated to.
		h := ss.srv.Health()
		return &Response{Status: h.status(), Health: h}
	case OpEstimate, OpSimulate, OpLint, OpProfile:
		return ss.runWork(ctx, &req)
	default:
		return &Response{Status: StatusFailed, Error: &WireError{
			Code: ErrCodeInvalid, Msg: fmt.Sprintf("unknown op %q", req.Op), PC: -1,
		}}
	}
}

// runWork submits one work op to the bounded pool and shapes the
// outcome into a response. Admission failure is the backpressure path:
// no pipeline work has started, and the client gets a fast, explicitly
// transient "unavailable".
func (ss *session) runWork(ctx context.Context, req *Request) *Response {
	var (
		out    string
		status int
		opErr  error
	)
	err := ss.srv.pool.Do(ctx, func(jctx context.Context) {
		// Worker-side panic containment: a poisoned program (or a
		// panicking chaos hook) becomes this request's typed fault.
		defer func() {
			if r := recover(); r != nil {
				opErr = &iss.Fault{Kind: iss.FaultPanic, Prog: req.Workload, PC: -1,
					Msg: fmt.Sprintf("op %s panicked: %v", req.Op, r)}
			}
		}()
		if hook := ss.srv.cfg.RequestHook; hook != nil {
			hook(req)
		}
		out, status, opErr = runOp(jctx, req)
	})
	switch {
	case errors.Is(err, ErrUnavailable), errors.Is(err, ErrDraining):
		ss.srv.health.shed.Add(1)
		return &Response{Status: StatusFailed, Error: &WireError{
			Code: ErrCodeUnavailable, Msg: err.Error(), PC: -1, Transient: true,
		}}
	case err != nil:
		// Session context ended mid-request (force-cancelled drain or
		// a dead connection): report a typed cancelled fault; the
		// write will likely fail too, which is fine.
		fault := cancelled(req.Workload, "session", err)
		ss.srv.health.countFault(fault)
		return &Response{Status: StatusFailed, Error: wireError(ErrCodeFault, fault)}
	}
	if opErr != nil {
		ss.srv.health.countFault(opErr)
		code := ErrCodeInternal
		var inv *InvalidRequestError
		if errors.As(opErr, &inv) {
			code = ErrCodeInvalid
		}
		return &Response{Status: StatusFailed, Error: wireError(code, opErr)}
	}
	return &Response{Status: status, Output: out}
}

// runOp dispatches to the shared pipeline entry points.
func runOp(ctx context.Context, req *Request) (out string, status int, err error) {
	switch req.Op {
	case OpEstimate:
		out, err = EstimateReport(ctx, EstimateParams{
			Workload: req.Workload, Fast: req.Fast,
			ProfileWindow: req.ProfileWindow, NoCache: req.NoCache,
		})
	case OpProfile:
		if req.ProfileWindow == 0 {
			return "", StatusFailed, invalidf("profile requires profile_window > 0")
		}
		out, err = EstimateReport(ctx, EstimateParams{
			Workload: req.Workload, Fast: req.Fast,
			ProfileWindow: req.ProfileWindow, NoCache: req.NoCache,
		})
	case OpSimulate:
		out, err = SimulateReport(ctx, SimulateParams{
			Workload: req.Workload, Source: req.Source, SourceName: req.SourceName,
			Vars: req.Vars, NoCache: req.NoCache,
		})
	case OpLint:
		return LintReport(ctx, LintParams{
			Workload: req.Workload, Source: req.Source, SourceName: req.SourceName,
			Notes: req.Notes, Disable: req.Disable, NoCache: req.NoCache,
		})
	default:
		return "", StatusFailed, invalidf("unknown op %q", req.Op)
	}
	if err != nil {
		return "", StatusFailed, err
	}
	return out, StatusOK, nil
}
