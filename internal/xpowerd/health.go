package xpowerd

import (
	"sync/atomic"

	"xtenergy/internal/iss"
	"xtenergy/internal/memo"
	"xtenergy/internal/rtlpower"
)

// Health is the server snapshot the health op returns. Its status
// follows the 0/1/2 convention: a serving daemon with admission
// headroom answers StatusOK, a saturated or draining daemon answers
// StatusDegraded (it is still up, but new work is or soon will be
// shed); StatusFailed is never sent for health — a daemon that cannot
// answer at all is simply unreachable.
type Health struct {
	// State is "serving" or "draining".
	State string `json:"state"`
	// ActiveSessions is the number of open connections.
	ActiveSessions int `json:"active_sessions"`
	// ActiveJobs and QueueDepth/QueueCapacity describe the worker
	// pool: jobs executing now, and the admission queue's fill level.
	ActiveJobs    int `json:"active_jobs"`
	QueueDepth    int `json:"queue_depth"`
	QueueCapacity int `json:"queue_capacity"`
	// Workers is the pool's fixed concurrency bound.
	Workers int `json:"workers"`
	// Kernel is the net-simulation walker tier every estimate this
	// daemon serves is computed on: the widest tier the host CPU
	// supports, chosen at process start.
	Kernel string `json:"kernel"`
	// Requests counts every decoded request since start; Shed counts
	// the ones rejected for load (queue full, connection limit,
	// draining).
	Requests uint64 `json:"requests"`
	Shed     uint64 `json:"shed"`
	// Faults counts failed work requests by iss.FaultKind name, with
	// untyped failures under "error".
	Faults map[string]uint64 `json:"faults,omitempty"`
	// Memo is the estimation engine's artifact-store accounting:
	// hits (by tier), misses, coalesced requests, evictions, and
	// corrupt-entry recoveries.
	Memo *memo.Counters `json:"memo,omitempty"`
}

// numFaultCounters is one slot per iss.FaultKind plus the trailing
// untyped-"error" slot.
const numFaultCounters = int(iss.FaultArtifact) + 2

// healthState is the server's always-on accounting: plain atomics so
// the hot request path never takes a lock for it.
type healthState struct {
	draining atomic.Bool
	sessions atomic.Int64
	requests atomic.Uint64
	shed     atomic.Uint64
	faults   [numFaultCounters]atomic.Uint64
}

// countFault records a failed work request under its fault kind.
func (h *healthState) countFault(err error) {
	slot := numFaultCounters - 1
	if f, ok := iss.AsFault(err); ok {
		slot = int(f.Kind)
	}
	h.faults[slot].Add(1)
}

// snapshot assembles the wire Health from the live counters. A nil
// pool (server not yet serving) reports zero pool fields.
func (h *healthState) snapshot(p *Pool) *Health {
	out := &Health{
		State:          "serving",
		ActiveSessions: int(h.sessions.Load()),
		Requests:       h.requests.Load(),
		Shed:           h.shed.Load(),
		Kernel:         rtlpower.SelectedKernel().String(),
	}
	if p != nil {
		out.ActiveJobs = p.Active()
		out.QueueDepth = p.QueueDepth()
		out.QueueCapacity = p.QueueCap()
		out.Workers = p.Workers()
	}
	if h.draining.Load() {
		out.State = "draining"
	}
	faults := make(map[string]uint64)
	for i := range h.faults {
		if n := h.faults[i].Load(); n > 0 {
			name := "error"
			if i < numFaultCounters-1 {
				name = iss.FaultKind(i).String()
			}
			faults[name] = n
		}
	}
	if len(faults) > 0 {
		out.Faults = faults
	}
	mc := Engine().Counters()
	out.Memo = &mc
	return out
}

// status is the health response's 0/1 answer: degraded once draining
// or once the admission queue is full (new work is being shed).
func (hl *Health) status() int {
	if hl.State != "serving" || (hl.QueueCapacity > 0 && hl.QueueDepth >= hl.QueueCapacity) {
		return StatusDegraded
	}
	return StatusOK
}
