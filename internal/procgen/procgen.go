// Package procgen is the processor generator: it combines a base-core
// configuration with a compiled TIE extension and produces a Processor
// instance, including the structural block netlist that the RTL-level
// reference power estimator simulates.
//
// This mirrors the Xtensa flow the paper describes: "after the custom
// instructions are incorporated, a processor generator automatically
// generates the enhanced processor" — here, the generated artifact is a
// structural model rather than Verilog.
package procgen

import (
	"fmt"
	"io"
	"strings"

	"xtenergy/internal/cache"
	"xtenergy/internal/hwlib"
	"xtenergy/internal/tie"
)

// Config is the base-core configuration (the configurable options of
// Section II: caches, register file, optional functional units).
type Config struct {
	// Name labels the configuration, e.g. "T1040-like".
	Name string
	// ClockMHz is the core clock; the paper's T1040 runs at 187 MHz.
	ClockMHz float64
	// HasMul32 includes the 32-bit multiplier option.
	HasMul32 bool
	// HasLoops includes the zero-overhead loop option (Xtensa's "loop"
	// instructions): LOOP/LOOPNEZ execute without per-iteration branch
	// penalties. Without the option they are illegal instructions.
	HasLoops bool
	// ICache and DCache are the cache geometries.
	ICache, DCache cache.Config
	// MemBytes is the size of the cacheable RAM image.
	MemBytes int
	// UncachedBase is the first address of the uncached region; code
	// fetched at or above it bypasses the instruction cache and counts
	// as an uncached instruction fetch.
	UncachedBase uint32
}

// Default returns the paper's experimental configuration: a T1040-like
// core at 187 MHz with the 32-bit multiply option, 4-way 16 KB I/D
// caches, and a 64-entry 32-bit register file (the register file size is
// fixed by the ISA).
func Default() Config {
	return Config{
		Name:         "T1040-like",
		ClockMHz:     187,
		HasMul32:     true,
		ICache:       cache.DefaultI(),
		DCache:       cache.DefaultD(),
		MemBytes:     1 << 20,
		UncachedBase: 0x2000_0000,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.ClockMHz <= 0 {
		return fmt.Errorf("procgen: non-positive clock %g MHz", c.ClockMHz)
	}
	if err := c.ICache.Validate(); err != nil {
		return fmt.Errorf("procgen: icache: %w", err)
	}
	if err := c.DCache.Validate(); err != nil {
		return fmt.Errorf("procgen: dcache: %w", err)
	}
	if c.MemBytes <= 0 {
		return fmt.Errorf("procgen: non-positive memory size %d", c.MemBytes)
	}
	if c.UncachedBase != 0 && int(c.UncachedBase) < c.MemBytes {
		return fmt.Errorf("procgen: uncached base %#x overlaps cacheable RAM of %d bytes", c.UncachedBase, c.MemBytes)
	}
	return nil
}

// BlockKind identifies a structural block of the generated processor.
type BlockKind uint8

// Base-core structural blocks plus the custom-hardware kind.
const (
	BlockFetch   BlockKind = iota // instruction fetch / PC unit
	BlockDecode                   // base instruction decoder
	BlockRegfile                  // general register file
	BlockALU                      // adder/logic/compare datapath
	BlockShifter                  // barrel shifter
	BlockMult                     // 32-bit multiplier option
	BlockLSU                      // load/store unit + alignment
	BlockICache                   // instruction cache (tag+data arrays)
	BlockDCache                   // data cache
	BlockBus                      // system bus interface (fills, uncached fetches)
	BlockPipeCtl                  // pipeline/interlock control
	BlockClock                    // clock tree (per-cycle baseline)
	BlockCustom                   // one TIE hardware component

	NumBaseBlockKinds = int(BlockCustom)
)

var blockKindNames = [...]string{
	"fetch", "decode", "regfile", "alu", "shifter", "mult", "lsu",
	"icache", "dcache", "bus", "pipectl", "clock", "custom",
}

// String returns the block kind's name.
func (k BlockKind) String() string {
	if int(k) < len(blockKindNames) {
		return blockKindNames[k]
	}
	return fmt.Sprintf("block(%d)", int(k))
}

// Block is one node of the generated processor's structural netlist.
type Block struct {
	Name string
	Kind BlockKind
	// CustomIdx indexes tie.Compiled.Components when Kind == BlockCustom;
	// -1 otherwise.
	CustomIdx int
	// Component is the hwlib description for custom blocks.
	Component hwlib.Component
}

// Processor is a generated processor instance: base configuration plus
// (optionally) compiled custom-instruction hardware.
type Processor struct {
	Config Config
	TIE    *tie.Compiled
	// Blocks is the structural netlist: base blocks first, then one block
	// per custom hardware component.
	Blocks []Block
	// CustomBlockBase is the index of the first custom block in Blocks.
	CustomBlockBase int
}

// Generate builds a processor from cfg and an extension (nil ext for a
// base-only core).
func Generate(cfg Config, ext *tie.Extension) (*Processor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	comp, err := tie.Compile(ext)
	if err != nil {
		return nil, err
	}
	p := &Processor{Config: cfg, TIE: comp}

	add := func(name string, kind BlockKind) {
		p.Blocks = append(p.Blocks, Block{Name: name, Kind: kind, CustomIdx: -1})
	}
	add("fetch", BlockFetch)
	add("decode", BlockDecode)
	add("regfile", BlockRegfile)
	add("alu", BlockALU)
	add("shifter", BlockShifter)
	if cfg.HasMul32 {
		add("mult32", BlockMult)
	}
	add("lsu", BlockLSU)
	add("icache", BlockICache)
	add("dcache", BlockDCache)
	add("bus", BlockBus)
	add("pipectl", BlockPipeCtl)
	add("clock", BlockClock)

	p.CustomBlockBase = len(p.Blocks)
	for i, c := range comp.Components {
		p.Blocks = append(p.Blocks, Block{
			Name:      "tie." + c.Name,
			Kind:      BlockCustom,
			CustomIdx: i,
			Component: c,
		})
	}
	return p, nil
}

// WriteNetlist renders the generated processor's structural netlist in a
// compact, Verilog-flavoured text form — the inspectable artifact of the
// "processor generator" step (the paper's flow emits actual RTL here).
func (p *Processor) WriteNetlist(w io.Writer) error {
	name := strings.ReplaceAll(strings.ToLower(p.Config.Name), " ", "_")
	if name == "" {
		name = "xt32_core"
	}
	ext := "none"
	if p.TIE.Ext != nil {
		ext = p.TIE.Ext.Name
	}
	if _, err := fmt.Fprintf(w, "// generated processor: %s (%.0f MHz), extension: %s\nmodule %s;\n",
		p.Config.Name, p.Config.ClockMHz, ext, name); err != nil {
		return err
	}
	for _, b := range p.Blocks {
		if b.Kind == BlockCustom {
			c := b.Component
			if c.Cat.String() == "table" && c.Entries > 0 {
				if _, err := fmt.Fprintf(w, "  block %-18s kind=custom cat=%-13s width=%-3d entries=%-5d f=%.3f\n",
					b.Name, c.Cat, c.Width, c.Entries, c.Complexity()); err != nil {
					return err
				}
				continue
			}
			if _, err := fmt.Fprintf(w, "  block %-18s kind=custom cat=%-13s width=%-3d f=%.3f\n",
				b.Name, c.Cat, c.Width, c.Complexity()); err != nil {
				return err
			}
			continue
		}
		if _, err := fmt.Fprintf(w, "  block %-18s kind=%s\n", b.Name, b.Kind); err != nil {
			return err
		}
	}
	if p.TIE.Ext != nil {
		if _, err := fmt.Fprintf(w, "  // %d custom instructions, %d custom registers\n",
			len(p.TIE.Ext.Instructions), p.TIE.Ext.NumCustomRegs); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "endmodule")
	return err
}
