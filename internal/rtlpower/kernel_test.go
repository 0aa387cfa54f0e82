package rtlpower

import (
	"strings"
	"testing"

	"xtenergy/internal/isa"
	"xtenergy/internal/iss"
	"xtenergy/internal/procgen"
)

// TestKernelWidth pins each tier's lane count, and requires every tier
// this host runs to have a walker in the walkers table and to fit the
// shared argument block.
func TestKernelWidth(t *testing.T) {
	widths := map[Kernel]int{
		KernelPortable: 8, KernelAVX2: 16, KernelAVX512: 64,
	}
	for k, want := range widths {
		if got := k.width(); got != want {
			t.Errorf("%s.width() = %d, want %d", k, got, want)
		}
	}
	for _, k := range SupportedKernels() {
		if walkers[k] == nil {
			t.Errorf("%s has no walker", k)
		}
		if k.width() > maxWalkLanes {
			t.Errorf("%s walks %d lanes, more than the block's %d", k, k.width(), maxWalkLanes)
		}
	}
}

// TestWithKernel checks the per-estimator tier pin: the copy's streams
// walk on the requested tier with a Describe cache of their own, the
// original keeps the CPU-selected tier, and tiers this host cannot run
// are refused.
func TestWithKernel(t *testing.T) {
	proc, err := procgen.Generate(procgen.Default(), nil)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(proc, FastTechnology())
	if err != nil {
		t.Fatal(err)
	}
	supported := SupportedKernels()
	if supported[0] != KernelPortable {
		t.Fatalf("SupportedKernels() = %v, want portable first", supported)
	}
	if want := supported[len(supported)-1]; e.kernel != want || SelectedKernel() != want {
		t.Fatalf("New picked %v (SelectedKernel %v), want the widest supported tier %v", e.kernel, SelectedKernel(), want)
	}
	// Warm the original's Describe cache: entries priced without a plan
	// record go through it.
	if err := e.Stream().Consume([]iss.TraceEntry{{Instr: isa.Instr{Op: isa.OpADD}, Cycles: 1}}); err != nil {
		t.Fatal(err)
	}
	if e.desc == nil {
		t.Fatal("Describe cache not warmed")
	}

	t.Run("RoundTrip", func(t *testing.T) {
		for _, k := range supported {
			c, err := e.WithKernel(k)
			if err != nil {
				t.Fatalf("WithKernel(%v): %v", k, err)
			}
			if c == e {
				t.Fatalf("WithKernel(%v) returned the receiver", k)
			}
			if got := c.Stream().kernel; got != k {
				t.Errorf("WithKernel(%v) copy streams on %v", k, got)
			}
			if c.desc != nil {
				t.Errorf("WithKernel(%v) copy shares the Describe cache", k)
			}
		}
		if got := e.Stream().kernel; got != SelectedKernel() {
			t.Errorf("original streams on %v after WithKernel, want %v", got, SelectedKernel())
		}
	})

	t.Run("Unsupported", func(t *testing.T) {
		isSupported := map[Kernel]bool{}
		for _, k := range supported {
			isSupported[k] = true
		}
		for k := Kernel(0); k <= numKernels; k++ {
			if isSupported[k] {
				continue
			}
			c, err := e.WithKernel(k)
			if err == nil || c != nil {
				t.Fatalf("WithKernel(%v) = %v, %v on a host that does not run it", k, c, err)
			}
			if !strings.Contains(err.Error(), "not supported on this host") {
				t.Errorf("WithKernel(%v) error %q lacks the host-support explanation", k, err)
			}
		}
	})
}
