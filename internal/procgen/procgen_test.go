package procgen

import (
	"strings"
	"testing"

	"xtenergy/internal/cache"
	"xtenergy/internal/hwlib"
	"xtenergy/internal/tie"
)

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := Default()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.ClockMHz != 187 {
		t.Fatalf("clock = %g MHz, want 187 (T1040)", cfg.ClockMHz)
	}
	if !cfg.HasMul32 {
		t.Fatal("32-bit multiplication option missing")
	}
	if cfg.ICache.SizeBytes != 16*1024 || cfg.ICache.Ways != 4 {
		t.Fatalf("icache %+v, want 4-way 16KB", cfg.ICache)
	}
	if cfg.DCache.SizeBytes != 16*1024 || cfg.DCache.Ways != 4 {
		t.Fatalf("dcache %+v, want 4-way 16KB", cfg.DCache)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := Default()
	bad.ClockMHz = 0
	if bad.Validate() == nil {
		t.Fatal("zero clock accepted")
	}
	bad = Default()
	bad.ICache.LineBytes = 33
	if bad.Validate() == nil {
		t.Fatal("bad icache accepted")
	}
	bad = Default()
	bad.MemBytes = 0
	if bad.Validate() == nil {
		t.Fatal("zero memory accepted")
	}
	bad = Default()
	bad.UncachedBase = 0x1000 // overlaps RAM
	if bad.Validate() == nil {
		t.Fatal("overlapping uncached base accepted")
	}
}

func TestGenerateBaseOnly(t *testing.T) {
	p, err := Generate(Default(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumCustomBlocks() != 0 {
		t.Fatalf("base-only processor has %d custom blocks", p.NumCustomBlocks())
	}
	for _, want := range []string{"fetch", "decode", "regfile", "alu", "shifter", "mult32", "lsu", "icache", "dcache", "bus", "pipectl", "clock"} {
		if _, ok := p.BlockByName(want); !ok {
			t.Fatalf("block %q missing", want)
		}
	}
}

func TestGenerateWithoutMultiplier(t *testing.T) {
	cfg := Default()
	cfg.HasMul32 = false
	p, err := Generate(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.BlockByName("mult32"); ok {
		t.Fatal("multiplier generated despite option off")
	}
}

func TestGenerateWithExtension(t *testing.T) {
	ext := &tie.Extension{
		Name:          "e",
		NumCustomRegs: 1,
		Instructions: []*tie.Instruction{{
			Name: "foo", Latency: 1, ReadsGeneral: true, WritesGeneral: true,
			Datapath: []tie.DatapathElem{{
				Component: hwlib.Component{Name: "fu", Cat: hwlib.Shifter, Width: 32},
			}},
			Semantics: func(_ *tie.State, op tie.Operands) uint32 { return op.RsVal },
		}},
	}
	p, err := Generate(Default(), ext)
	if err != nil {
		t.Fatal(err)
	}
	// 3 control blocks + regfile + 1 datapath component.
	if p.NumCustomBlocks() != 5 {
		t.Fatalf("custom blocks = %d, want 5", p.NumCustomBlocks())
	}
	b, ok := p.BlockByName("tie.fu")
	if !ok {
		t.Fatal("custom datapath block missing")
	}
	if b.Kind != BlockCustom || b.CustomIdx < 0 {
		t.Fatalf("custom block metadata wrong: %+v", b)
	}
	// Custom blocks come after base blocks and reference TIE components.
	for i := p.CustomBlockBase; i < len(p.Blocks); i++ {
		blk := p.Blocks[i]
		if blk.Kind != BlockCustom {
			t.Fatalf("block %d after CustomBlockBase is %s", i, blk.Kind)
		}
		if p.TIE.Components[blk.CustomIdx] != blk.Component {
			t.Fatalf("block %d component mismatch", i)
		}
	}
}

func TestGenerateRejectsBadExtension(t *testing.T) {
	if _, err := Generate(Default(), &tie.Extension{Name: ""}); err == nil {
		t.Fatal("invalid extension accepted")
	}
	bad := Default()
	bad.ClockMHz = -1
	if _, err := Generate(bad, nil); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestBlockKindString(t *testing.T) {
	if BlockALU.String() != "alu" || BlockCustom.String() != "custom" {
		t.Fatal("block kind names wrong")
	}
	if BlockKind(99).String() == "" {
		t.Fatal("out-of-range kind empty")
	}
}

func TestCustomCacheConfig(t *testing.T) {
	cfg := Default()
	cfg.ICache = cache.Config{SizeBytes: 8 * 1024, LineBytes: 16, Ways: 2, MissPenalty: 6}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	p, err := Generate(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.Config.ICache.SizeBytes != 8*1024 {
		t.Fatal("config not preserved")
	}
}

func TestWriteNetlist(t *testing.T) {
	ext := &tie.Extension{
		Name:          "nl",
		NumCustomRegs: 2,
		Instructions: []*tie.Instruction{{
			Name: "foo", Latency: 1, ReadsGeneral: true, WritesGeneral: true,
			Datapath: []tie.DatapathElem{
				{Component: hwlib.Component{Name: "tab", Cat: hwlib.Table, Width: 8, Entries: 256}},
				{Component: hwlib.Component{Name: "sh", Cat: hwlib.Shifter, Width: 32}},
			},
			Semantics: func(_ *tie.State, op tie.Operands) uint32 { return op.RsVal },
		}},
	}
	p, err := Generate(Default(), ext)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := p.WriteNetlist(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"module t1040-like;",
		"extension: nl",
		"block fetch",
		"block clock",
		"tie.tab",
		"entries=256",
		"tie.sh",
		"kind=custom cat=shifter",
		"1 custom instructions, 2 custom registers",
		"endmodule",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("netlist missing %q:\n%s", want, out)
		}
	}
	// Base-only netlist renders too, without the extension comment.
	p2, _ := Generate(Default(), nil)
	buf.Reset()
	if err := p2.WriteNetlist(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "custom instructions") {
		t.Fatal("base-only netlist mentions custom instructions")
	}
}

// NumCustomBlocks returns the number of custom hardware blocks.
func (p *Processor) NumCustomBlocks() int {
	return len(p.Blocks) - p.CustomBlockBase
}

// BlockByName finds a block by name.
func (p *Processor) BlockByName(name string) (Block, bool) {
	for _, b := range p.Blocks {
		if b.Name == name {
			return b, true
		}
	}
	return Block{}, false
}
