// Package xpowerd is the estimation-as-a-service daemon: a long-running
// server that accepts concurrent estimate/lint/profile/simulate sessions
// over a length-prefixed JSON frame protocol on TCP and unix sockets,
// threading a per-session context into the existing streamed pipelines
// (rtlpower.RunStreamed / EstimateProgram, xlint) and mapping every
// typed iss.Fault onto structured wire errors.
//
// The robustness machinery lives one concern per file: protocol.go (the
// wire format and its hard frame-size cap), pool.go (the bounded worker
// pool with an explicit admission queue — overload yields fast
// "unavailable" responses instead of unbounded goroutines), session.go
// (per-connection request loop with read/write deadlines and panic
// containment), server.go (accept loop, connection limits, and the
// graceful drain state machine), health.go (queue depth, active
// sessions, and fault counters behind the "health" op), ops.go (the
// pipeline entry points, shared with the one-shot CLIs so remote
// responses are byte-identical by construction), and client.go (the
// dialer behind `xpower -remote` / `xlint -remote`).
package xpowerd

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"xtenergy/internal/iss"
)

// DefaultMaxFrame is the frame-size cap applied when Config.MaxFrame is
// zero: one mebibyte comfortably holds any request or report this
// service produces, and bounds what a malicious or broken peer can make
// the decoder allocate.
const DefaultMaxFrame = 1 << 20

// frameHeaderSize is the fixed big-endian length prefix in front of
// every JSON payload.
const frameHeaderSize = 4

// Typed frame-decoding failures. ReadFrame never panics and never
// allocates more than the declared cap, whatever bytes the peer sends;
// a frame declaring more than the cap is rejected from its header
// alone, before any payload allocation.
var (
	// ErrFrameTooLarge means the length prefix declared a payload
	// beyond the negotiated cap.
	ErrFrameTooLarge = errors.New("xpowerd: frame exceeds size cap")
	// ErrFrameEmpty means the length prefix declared a zero-byte
	// payload, which can never hold a JSON document.
	ErrFrameEmpty = errors.New("xpowerd: empty frame")
	// ErrFrameTruncated means the stream ended inside a frame (header
	// or payload) — a mid-frame disconnect or a truncated write.
	ErrFrameTruncated = errors.New("xpowerd: truncated frame")
)

// WriteFrame marshals v and writes it as one length-prefixed frame.
func WriteFrame(w io.Writer, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("xpowerd: encode frame: %w", err)
	}
	return writePayload(w, payload)
}

// writePayload writes an encoded payload as one length-prefixed frame.
func writePayload(w io.Writer, payload []byte) error {
	if uint64(len(payload)) > math.MaxUint32 {
		return fmt.Errorf("xpowerd: frame payload of %d bytes overflows the length prefix", len(payload))
	}
	var hdr [frameHeaderSize]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one length-prefixed payload, enforcing the size cap
// (0 means DefaultMaxFrame) before allocating anything for the body.
// Truncations, empty frames, and oversized declarations come back as
// typed errors so the session layer can tell a protocol violation from
// a plain disconnect.
func ReadFrame(r io.Reader, max uint32) ([]byte, error) {
	if max == 0 {
		max = DefaultMaxFrame
	}
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF // clean close between frames
		}
		return nil, fmt.Errorf("%w: %v", ErrFrameTruncated, err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 {
		return nil, ErrFrameEmpty
	}
	if n > max {
		return nil, fmt.Errorf("%w: declared %d bytes, cap %d", ErrFrameTooLarge, n, max)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFrameTruncated, err)
	}
	return payload, nil
}

// Ops accepted by the daemon. Estimate, Simulate, Lint, and Profile run
// on the bounded worker pool; Health is answered inline so it stays
// responsive under saturation.
const (
	OpEstimate = "estimate"
	OpSimulate = "simulate"
	OpLint     = "lint"
	OpProfile  = "profile"
	OpHealth   = "health"
)

// Request is one client command. Exactly one of Workload (a registry
// name) or Source (inline XT32 assembly, base ISA) selects the program
// for the work ops; Health takes neither.
type Request struct {
	// Op selects the operation: estimate, simulate, lint, profile, or
	// health.
	Op string `json:"op"`
	// Workload names a built-in workload from the registry.
	Workload string `json:"workload,omitempty"`
	// Source is inline XT32 assembly (base ISA) analyzed instead of a
	// named workload. Lint and simulate accept it; the reference
	// estimator requires a registry workload. SourceName labels the
	// inline program in reports (e.g. the client-side file path;
	// "inline" when empty).
	Source     string `json:"source,omitempty"`
	SourceName string `json:"source_name,omitempty"`
	// Fast selects the reduced-resolution reference technology
	// (estimate/profile only).
	Fast bool `json:"fast,omitempty"`
	// Deprecated: ignored. Each estimation walks on one goroutine;
	// the worker pool bounds how many run at once.
	Shards int `json:"shards,omitempty"`
	// ProfileWindow is the power-vs-time window in cycles. Required for
	// profile; optional for estimate (appends the profile section,
	// exactly like `xpower -profile`).
	ProfileWindow uint64 `json:"profile_window,omitempty"`
	// Vars appends the macro-model variable section to a simulate
	// report (`xsim -vars`).
	Vars bool `json:"vars,omitempty"`
	// Notes includes note-severity findings in a lint report
	// (`xlint -notes`).
	Notes bool `json:"notes,omitempty"`
	// Disable suppresses the named lint finding codes
	// (`xlint -disable`).
	Disable []string `json:"disable,omitempty"`
	// NoCache bypasses the daemon's artifact store for this request:
	// the pipeline always runs, and nothing is read or written
	// (`xpower -no-cache` / `xlint -no-cache` over -remote).
	NoCache bool `json:"no_cache,omitempty"`
}

// Response statuses follow the CLIs' 0/1/2 exit semantics: 0 clean,
// 1 completed with findings or in a degraded state (lint warnings, a
// draining daemon answering health), 2 failed (fault, invalid request,
// or load shed).
const (
	StatusOK       = 0
	StatusDegraded = 1
	StatusFailed   = 2
)

// Stable WireError codes.
const (
	// ErrCodeInvalid is a request the daemon can never serve: unknown
	// op, unknown workload, missing program, bad lint codes.
	ErrCodeInvalid = "invalid"
	// ErrCodeUnavailable is backpressure: the admission queue or the
	// connection limit is full, or the daemon is draining. The request
	// was rejected fast and cheaply; retrying later may succeed.
	ErrCodeUnavailable = "unavailable"
	// ErrCodeFault carries a typed iss.Fault from the pipeline; the
	// fault site fields are populated.
	ErrCodeFault = "fault"
	// ErrCodeProtocol is a malformed frame (the session is closed after
	// reporting it — the stream can no longer be trusted) or an
	// undecodable request (frame boundaries intact, so the session
	// continues).
	ErrCodeProtocol = "protocol"
	// ErrCodeInternal is any other server-side failure.
	ErrCodeInternal = "internal"
)

// Response is one command's outcome.
type Response struct {
	// Status is the 0/1/2 outcome (see the Status constants).
	Status int `json:"status"`
	// Output is the report text, byte-identical to the one-shot CLI's
	// stdout for the same inputs (the CLIs render through the same
	// ops.go entry points).
	Output string `json:"output,omitempty"`
	// Error describes the failure when Status is StatusFailed.
	Error *WireError `json:"error,omitempty"`
	// Health is the server snapshot (health op only).
	Health *Health `json:"health,omitempty"`
}

// WireError is the structured error a failed request carries. Typed
// iss.Faults keep their taxonomy and site on the wire, so a remote
// caller can triage exactly like a local one.
type WireError struct {
	// Code is one of the ErrCode constants.
	Code string `json:"code"`
	// Msg is the human-readable detail.
	Msg string `json:"msg"`
	// FaultKind is the iss.FaultKind name ("mem-fault", "watchdog",
	// ...) when Code is ErrCodeFault.
	FaultKind string `json:"fault_kind,omitempty"`
	// Prog, PC, Cycle, and Addr are the fault site (PC is -1 when the
	// fault has no instruction site).
	Prog  string `json:"prog,omitempty"`
	PC    int    `json:"pc"`
	Cycle uint64 `json:"cycle,omitempty"`
	Addr  uint32 `json:"addr,omitempty"`
	// Transient marks a failure worth retrying (iss.Fault.IsTransient,
	// and every unavailable response).
	Transient bool `json:"transient,omitempty"`
}

// Error renders the wire error; the client returns it as the remote
// call's error.
func (e *WireError) Error() string {
	return fmt.Sprintf("xpowerd: remote %s: %s", e.Code, e.Msg)
}

// wireError builds the WireError for err, preserving a typed fault's
// kind and site when one is present.
func wireError(code string, err error) *WireError {
	we := &WireError{Code: code, Msg: err.Error(), PC: -1}
	if f, ok := iss.AsFault(err); ok {
		we.Code = ErrCodeFault
		we.FaultKind = f.Kind.String()
		we.Prog = f.Prog
		we.PC = f.PC
		we.Cycle = f.Cycle
		we.Addr = f.Addr
		we.Transient = f.IsTransient()
	}
	return we
}
