package rtlpower

import (
	"testing"

	"xtenergy/internal/iss"
	"xtenergy/internal/procgen"
)

// RecordTrace runs prog on a fresh simulator for proc and returns every
// retired instruction, appended from the TraceSink's batches, with the
// run's result. It is the whole trace that the EstimateTrace oracle and
// the batch-boundary tests consume; being declared in a test file, it
// exists only for this package's tests and rtlpower_test's.
func RecordTrace(tb testing.TB, proc *procgen.Processor, prog *iss.Program) ([]iss.TraceEntry, *iss.Result) {
	tb.Helper()
	var trace []iss.TraceEntry
	res, err := iss.New(proc).Run(prog, iss.Options{TraceSink: func(batch []iss.TraceEntry) error {
		trace = append(trace, batch...)
		return nil
	}})
	if err != nil {
		tb.Fatal(err)
	}
	return trace, res
}

// ChunkDraws is a chunk's draw total, with the lane walk's cap on it,
// so the external tests can check which path a program's chunks take.
func ChunkDraws(s *StreamEstimator, chunk []iss.TraceEntry) uint64 { return s.chunkDraws(chunk) }

const MaxChunkDraws = maxChunkDraws
