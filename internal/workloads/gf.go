package workloads

import (
	"xtenergy/internal/hwlib"
	"xtenergy/internal/tie"
)

// gfTables builds the GF(2^8) log/antilog tables with generator α = 2.
// exp is doubled in length so exp[log a + log b] needs no modular
// reduction when indexed with a sum < 510.
func gfTables() (logT [256]uint32, expT [512]uint32) {
	x := uint32(1)
	for i := 0; i < 255; i++ {
		expT[i] = x
		logT[x] = uint32(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= 0x100 | gfPoly // reduce modulo the field polynomial
		}
	}
	for i := 255; i < 512; i++ {
		expT[i] = expT[i-255]
	}
	return
}

// rsGenPoly returns the coefficients g[0..deg-1] of the Reed-Solomon
// generator polynomial Π (x - α^i), i = 0..deg-1 (the x^deg coefficient
// is an implicit 1).
func rsGenPoly(deg int) []uint32 {
	g := []uint32{1}
	root := uint32(1) // α^0
	for i := 0; i < deg; i++ {
		next := make([]uint32, len(g)+1)
		for j, c := range g {
			next[j] ^= gfMulByte(c, root)
			next[j+1] ^= c
		}
		g = next
		root = gfMulByte(root, 2) // α^(i+1)
	}
	return g[:deg]
}

// GFMulExtension is the Reed-Solomon choice C2: a single-cycle GF(2^8)
// multiplier built from hardware log/antilog tables.
func GFMulExtension() *tie.Extension {
	return &tie.Extension{
		Name: "gfmul",
		Instructions: []*tie.Instruction{
			{
				Name: "gfmul", Latency: 1, ReadsGeneral: true, WritesGeneral: true,
				Datapath: []tie.DatapathElem{
					dp(hwlib.Component{Name: "gf_tab", Cat: hwlib.Table, Width: 8, Entries: 512}, true),
					dp(hwlib.Component{Name: "gf_add", Cat: hwlib.AddSubCmp, Width: 9}, false),
					dp(hwlib.Component{Name: "gf_zero", Cat: hwlib.LogicRedMux, Width: 8}, false),
				},
				Semantics: func(_ *tie.State, op tie.Operands) uint32 {
					return gfMulByte(op.RsVal, op.RtVal)
				},
			},
		},
	}
}

// GFMacExtension is choice C3: setfb latches the LFSR feedback byte into
// a custom register; gfmac computes rs ^ fb*rt in one cycle.
func GFMacExtension() *tie.Extension {
	return &tie.Extension{
		Name:          "gfmac",
		NumCustomRegs: 1,
		Instructions: []*tie.Instruction{
			{
				Name: "setfb", Latency: 1, ReadsGeneral: true,
				Datapath: []tie.DatapathElem{
					dp(hwlib.Component{Name: "gm_fb", Cat: hwlib.CustomRegister, Width: 8}, true),
				},
				Semantics: func(s *tie.State, op tie.Operands) uint32 {
					s.Regs[0] = op.RsVal & 0xFF
					return 0
				},
			},
			{
				Name: "gfmac", Latency: 1, ReadsGeneral: true, WritesGeneral: true,
				Datapath: []tie.DatapathElem{
					dp(hwlib.Component{Name: "gm_tab", Cat: hwlib.Table, Width: 8, Entries: 512}, true),
					dp(hwlib.Component{Name: "gm_add", Cat: hwlib.AddSubCmp, Width: 9}, false),
					dp(hwlib.Component{Name: "gm_xor", Cat: hwlib.LogicRedMux, Width: 8}, false),
					dp(hwlib.Component{Name: "gm_fb", Cat: hwlib.CustomRegister, Width: 8}, false),
				},
				Semantics: func(s *tie.State, op tie.Operands) uint32 {
					return (op.RsVal ^ gfMulByte(s.Regs[0], op.RtVal)) & 0xFF
				},
			},
		},
	}
}
