package rtlpower_test

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"xtenergy/internal/asm"
	"xtenergy/internal/iss"
	"xtenergy/internal/procgen"
	"xtenergy/internal/rtlpower"
)

// longLoopSrc retires ~10k instructions: enough batches for mid-stream
// cancellation to land between batch boundaries.
const longLoopSrc = `
    movi a2, 2500
    movi a3, 17
loop:
    add a4, a3, a2
    xor a3, a4, a3
    addi a2, a2, -1
    bnez a2, loop
    ret
`

// settleGoroutines polls until the goroutine count returns to at most
// base (the stream pipeline's workers have exited) or the deadline
// passes.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: %d running, started with %d", n, base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func buildLong(t *testing.T) (*procgen.Processor, *iss.Program) {
	t.Helper()
	proc, err := procgen.Generate(procgen.Default(), nil)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := asm.New(proc.TIE).Assemble("t", longLoopSrc)
	if err != nil {
		t.Fatal(err)
	}
	return proc, prog
}

// TestEstimateProgramWatchdog drives a watchdog abort through the
// streamed path: the fault must carry the right kind and the pipeline's
// goroutine must be gone afterwards.
func TestEstimateProgramWatchdog(t *testing.T) {
	proc, prog := buildLong(t)
	base := runtime.NumGoroutine()
	e, err := rtlpower.New(proc, testTech())
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = e.EstimateProgram(context.Background(), prog, iss.Options{MaxCycles: 500})
	f, ok := iss.AsFault(err)
	if !ok || f.Kind != iss.FaultWatchdog {
		t.Fatalf("want watchdog fault, got %v", err)
	}
	settleGoroutines(t, base)
}

// cancellingConsumer cancels the run after the first batch, then keeps
// accepting batches so shutdown can drain the channel.
type cancellingConsumer struct {
	cancel  context.CancelFunc
	batches int
}

func (c *cancellingConsumer) Consume(batch []iss.TraceEntry) error {
	c.batches++
	if c.batches == 1 {
		c.cancel()
	}
	return nil
}

// TestRunStreamedCancelMidStream cancels the context from inside the
// consumer mid-run: the run must surface a cancelled fault wrapping
// context.Canceled within a batch boundary, and the pipeline must not
// leak its goroutine or deadlock on the ring.
func TestRunStreamedCancelMidStream(t *testing.T) {
	proc, prog := buildLong(t)
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c := &cancellingConsumer{cancel: cancel}
	_, err := rtlpower.RunStreamed(ctx, iss.New(proc), prog, iss.Options{}, c)
	f, ok := iss.AsFault(err)
	if !ok || f.Kind != iss.FaultCancelled {
		t.Fatalf("want cancelled fault, got %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("fault does not wrap context.Canceled: %v", err)
	}
	// Cancellation is observed at batch granularity: the consumer must
	// not have seen anywhere near the full ~10k-entry trace.
	if c.batches > 8 {
		t.Fatalf("consumer saw %d batches after cancelling on the first", c.batches)
	}
	settleGoroutines(t, base)
}

// TestRunStreamedConsumerError aborts the run when the consumer rejects
// a batch; the sink error must surface and the pipeline must shut down.
func TestRunStreamedConsumerError(t *testing.T) {
	proc, prog := buildLong(t)
	base := runtime.NumGoroutine()
	boom := errors.New("consumer rejected batch")
	_, err := rtlpower.RunStreamed(context.Background(), iss.New(proc), prog, iss.Options{},
		consumerFunc(func(batch []iss.TraceEntry) error { return boom }))
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("consumer error lost: %v", err)
	}
	settleGoroutines(t, base)
}

// TestRunStreamedConsumerPanic converts a panicking consumer into a
// typed panic fault instead of tearing down the process.
func TestRunStreamedConsumerPanic(t *testing.T) {
	proc, prog := buildLong(t)
	base := runtime.NumGoroutine()
	_, err := rtlpower.RunStreamed(context.Background(), iss.New(proc), prog, iss.Options{},
		consumerFunc(func(batch []iss.TraceEntry) error { panic("consumer bug") }))
	f, ok := iss.AsFault(err)
	if !ok || f.Kind != iss.FaultPanic {
		t.Fatalf("want panic fault, got %v", err)
	}
	settleGoroutines(t, base)
}

type consumerFunc func(batch []iss.TraceEntry) error

func (f consumerFunc) Consume(batch []iss.TraceEntry) error { return f(batch) }
