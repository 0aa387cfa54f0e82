// Package asm implements a two-pass assembler for XT32 programs,
// standing in for the cross-compiler of the paper's flow: test programs
// and application benchmarks are written in XT32 assembly (optionally
// using TIE custom-instruction mnemonics) and assembled into iss.Program
// images for instruction-set simulation.
//
// Syntax overview:
//
//	; comment            (also "#" and "//")
//	start:               ; code label
//	    movi  a1, 100
//	    movi  a2, table  ; labels usable as immediates
//	    add   a3, a1, a2
//	    beq   a1, a3, done
//	    call  func
//	    ret
//	.uncached            ; following code lies in the uncached region
//	.cached
//	.equ  SIZE, 64       ; symbolic constant
//	.data 0x1000         ; set the data cursor
//	table:               ; data label = current data address
//	.word 1, 2, 0x30
//	.byte 1, 2, 3
//	.space 64
//
// Custom instructions use the mnemonics of the processor's compiled TIE
// extension and take three operands: "gfmul a2, a3, a4". Instructions
// declared with ImmOperand take a small signed constant as the third
// operand instead: "rotacc a2, a3, 5".
package asm

import (
	"fmt"
	"strconv"
	"strings"

	"xtenergy/internal/isa"
	"xtenergy/internal/iss"
	"xtenergy/internal/plan"
	"xtenergy/internal/tie"
)

// Assembler translates XT32 assembly source into executable programs.
type Assembler struct {
	custom map[string]customDef
}

type customDef struct {
	id  uint8
	imm bool // third operand is a small signed constant
}

// New returns an assembler that recognizes the custom-instruction
// mnemonics of comp (pass the result of tie.Compile; a base-only
// compiled extension is fine).
func New(comp *tie.Compiled) *Assembler {
	a := &Assembler{custom: make(map[string]customDef)}
	if comp != nil && comp.Ext != nil {
		for id, in := range comp.Ext.Instructions {
			a.custom[in.Name] = customDef{id: uint8(id), imm: in.ImmOperand}
		}
	}
	return a
}

// Error is an assembly diagnostic with source position.
type Error struct {
	Program string
	Line    int
	Msg     string
}

func (e *Error) Error() string {
	return fmt.Sprintf("asm: %s:%d: %s", e.Program, e.Line, e.Msg)
}

type symbol struct {
	value  int64
	isCode bool
}

type sourceLine struct {
	num    int
	labels []labelRef
	op     string   // mnemonic or directive (with leading '.'), lower case
	args   []string // comma-separated operand fields, trimmed
}

// labelRef remembers where a label was written, which may be an earlier
// line than the instruction it attaches to — diagnostics about the label
// itself (e.g. a duplicate) must point at the label's own line.
type labelRef struct {
	name string
	line int
}

// Assemble translates src into a program named name.
func (a *Assembler) Assemble(name, src string) (*iss.Program, error) {
	lines, err := scan(name, src)
	if err != nil {
		return nil, err
	}

	// Pass 1: assign label values, size the code, lay out data.
	syms := make(map[string]symbol)
	codeIdx := 0
	dataCursor := int64(-1)
	inData := false
	define := func(lbl labelRef) error {
		if _, dup := syms[lbl.name]; dup {
			return &Error{name, lbl.line, fmt.Sprintf("duplicate label %q", lbl.name)}
		}
		if inData {
			if dataCursor < 0 {
				return &Error{name, lbl.line, "data label before .data directive"}
			}
			syms[lbl.name] = symbol{value: dataCursor}
		} else {
			syms[lbl.name] = symbol{value: int64(codeIdx), isCode: true}
		}
		return nil
	}
	for i := range lines {
		ln := &lines[i]
		for _, lbl := range ln.labels {
			if err := define(lbl); err != nil {
				return nil, err
			}
		}
		if ln.op == "" {
			continue
		}
		if strings.HasPrefix(ln.op, ".") {
			switch ln.op {
			case ".equ":
				// .equ NAME, value — a symbolic constant.
				if len(ln.args) != 2 {
					return nil, &Error{name, ln.num, ".equ takes a name and a value"}
				}
				if !isIdent(ln.args[0]) {
					return nil, &Error{name, ln.num, fmt.Sprintf("invalid .equ name %q", ln.args[0])}
				}
				if _, dup := syms[ln.args[0]]; dup {
					return nil, &Error{name, ln.num, fmt.Sprintf("duplicate symbol %q", ln.args[0])}
				}
				v, err := a.resolve(ln.args[1], syms, ln, name)
				if err != nil {
					return nil, err
				}
				syms[ln.args[0]] = symbol{value: v}
			case ".data":
				inData = true
				v, err := parseNumber(ln.args, ln, name)
				if err != nil {
					return nil, err
				}
				dataCursor = v
			case ".text", ".cached", ".uncached":
				inData = false
			case ".word":
				if err := needData(ln, name, inData, dataCursor); err != nil {
					return nil, err
				}
				dataCursor += int64(4 * len(ln.args))
			case ".byte":
				if err := needData(ln, name, inData, dataCursor); err != nil {
					return nil, err
				}
				dataCursor += int64(len(ln.args))
			case ".space":
				if err := needData(ln, name, inData, dataCursor); err != nil {
					return nil, err
				}
				v, err := parseNumber(ln.args, ln, name)
				if err != nil {
					return nil, err
				}
				dataCursor += v
			case ".align":
				if err := needData(ln, name, inData, dataCursor); err != nil {
					return nil, err
				}
				v, err := parseNumber(ln.args, ln, name)
				if err != nil {
					return nil, err
				}
				if v <= 0 || v&(v-1) != 0 {
					return nil, &Error{name, ln.num, fmt.Sprintf(".align %d is not a power of two", v)}
				}
				dataCursor = (dataCursor + v - 1) &^ (v - 1)
			default:
				return nil, &Error{name, ln.num, fmt.Sprintf("unknown directive %s", ln.op)}
			}
			continue
		}
		if inData {
			return nil, &Error{name, ln.num, "instruction inside data section (missing .text?)"}
		}
		codeIdx++
	}

	// Pass 2: emit.
	prog := &iss.Program{
		Name:  name,
		Code:  make([]isa.Instr, 0, codeIdx),
		Lines: make([]int, 0, codeIdx),
	}
	uncachedFlags := make([]bool, 0, codeIdx)
	uncached := false
	inData = false
	dataCursor = -1
	var segs []iss.Segment
	var curSeg *iss.Segment
	startSeg := func(addr int64) {
		segs = append(segs, iss.Segment{Addr: uint32(addr)})
		curSeg = &segs[len(segs)-1]
	}
	emitBytes := func(bs ...byte) {
		curSeg.Bytes = append(curSeg.Bytes, bs...)
		dataCursor += int64(len(bs))
	}

	for i := range lines {
		ln := &lines[i]
		if ln.op == "" {
			continue
		}
		if strings.HasPrefix(ln.op, ".") {
			switch ln.op {
			case ".data":
				inData = true
				v, _ := parseNumber(ln.args, ln, name)
				dataCursor = v
				startSeg(v)
			case ".text", ".cached":
				inData = false
				uncached = false
			case ".uncached":
				inData = false
				uncached = true
			case ".word":
				for _, arg := range ln.args {
					v, err := a.resolve(arg, syms, ln, name)
					if err != nil {
						return nil, err
					}
					emitBytes(byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
				}
			case ".byte":
				for _, arg := range ln.args {
					v, err := a.resolve(arg, syms, ln, name)
					if err != nil {
						return nil, err
					}
					if v < -128 || v > 255 {
						return nil, &Error{name, ln.num, fmt.Sprintf("byte value %d out of range", v)}
					}
					emitBytes(byte(v))
				}
			case ".space":
				v, _ := parseNumber(ln.args, ln, name)
				emitBytes(make([]byte, v)...)
			case ".align":
				v, _ := parseNumber(ln.args, ln, name)
				pad := (v - dataCursor%v) % v
				emitBytes(make([]byte, pad)...)
			case ".equ":
				// Defined in pass 1; nothing to emit.
			}
			continue
		}
		in, err := a.encodeLine(ln, syms, len(prog.Code), name)
		if err != nil {
			return nil, err
		}
		prog.Code = append(prog.Code, in)
		prog.Lines = append(prog.Lines, ln.num)
		uncachedFlags = append(uncachedFlags, uncached)
	}

	for _, f := range uncachedFlags {
		if f {
			prog.Uncached = uncachedFlags
			break
		}
	}
	for _, s := range segs {
		if len(s.Bytes) > 0 {
			prog.Data = append(prog.Data, s)
		}
	}
	if ent, ok := syms["start"]; ok && ent.isCode {
		prog.Entry = int(ent.value)
	}
	prog.Labels = make(map[string]int)
	for name, sym := range syms {
		if sym.isCode {
			prog.Labels[name] = int(sym.value)
		}
	}
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	if err := checkTargets(prog); err != nil {
		return nil, err
	}
	return prog, nil
}

// checkTargets verifies that every statically known control-flow target
// lands inside the program: branch and jump destinations in [0, n]
// (index n is the fall-off-the-end halt) and zero-overhead loop ends in
// (pc+1, n]. The simulator faults at runtime on these; catching them at
// assembly time turns a mid-simulation error into a file:line diagnostic.
func checkTargets(prog *iss.Program) error {
	n := len(prog.Code)
	bad := func(i int, format string, args ...any) error {
		return &Error{prog.Name, prog.Line(i), fmt.Sprintf(format, args...)}
	}
	for i, in := range prog.Code {
		d, ok := isa.Lookup(in.Op)
		if !ok {
			continue
		}
		switch {
		case in.Op == isa.OpLOOP || in.Op == isa.OpLOOPNEZ:
			if end := i + 1 + int(in.Imm); end <= i+1 || end > n {
				return bad(i, "%s end %d out of range (%d,%d]", in.Op.Name(), end, i+1, n)
			}
		case d.Format == isa.FormatBranchRR || d.Format == isa.FormatBranchRI || d.Format == isa.FormatBranchR:
			if t := i + 1 + int(in.Imm); t < 0 || t > n {
				return bad(i, "%s target %d out of range [0,%d]", in.Op.Name(), t, n)
			}
		case d.Format == isa.FormatJump:
			if t := int(in.Imm); t < 0 || t > n {
				return bad(i, "%s target %d out of range [0,%d]", in.Op.Name(), t, n)
			}
		}
	}
	return nil
}

func needData(ln *sourceLine, name string, inData bool, cursor int64) error {
	if !inData || cursor < 0 {
		return &Error{name, ln.num, ln.op + " outside data section"}
	}
	return nil
}

// encodeLine assembles one instruction line.
func (a *Assembler) encodeLine(ln *sourceLine, syms map[string]symbol, pc int, name string) (isa.Instr, error) {
	fail := func(format string, args ...any) (isa.Instr, error) {
		return isa.Instr{}, &Error{name, ln.num, fmt.Sprintf(format, args...)}
	}
	if cd, ok := a.custom[ln.op]; ok {
		if len(ln.args) != 3 {
			return fail("custom instruction %s takes 3 operands", ln.op)
		}
		var regs [2]uint8
		for i := 0; i < 2; i++ {
			r, err := isa.ParseReg(ln.args[i])
			if err != nil {
				return fail("%v", err)
			}
			regs[i] = r
		}
		in := isa.Instr{Op: isa.OpCUSTOM, CustomID: cd.id, Rd: regs[0], Rs: regs[1]}
		if cd.imm {
			v, err := a.resolve(ln.args[2], syms, ln, name)
			if err != nil {
				return in, err
			}
			rt, ok := plan.EncodeImm6(v)
			if !ok {
				return fail("%s immediate %d out of range [%d,%d]", ln.op, v, plan.MinImm6, plan.MaxImm6)
			}
			in.Rt = rt
		} else {
			r, err := isa.ParseReg(ln.args[2])
			if err != nil {
				return fail("%v", err)
			}
			in.Rt = r
		}
		return in, nil
	}

	op, ok := isa.ByName(ln.op)
	if !ok {
		return fail("unknown mnemonic %q", ln.op)
	}
	d, _ := isa.Lookup(op)
	in := isa.Instr{Op: op}

	reg := func(i int) (uint8, error) {
		r, err := isa.ParseReg(ln.args[i])
		if err != nil {
			return 0, &Error{name, ln.num, err.Error()}
		}
		return r, nil
	}
	imm := func(i int) (int64, error) { return a.resolve(ln.args[i], syms, ln, name) }
	branchTarget := func(i int) (int32, error) {
		v, err := imm(i)
		if err != nil {
			return 0, err
		}
		// A code label becomes a pc-relative word offset.
		if s, ok := syms[strings.TrimSpace(ln.args[i])]; ok && s.isCode {
			return int32(s.value) - int32(pc) - 1, nil
		}
		return int32(v), nil
	}
	want := func(n int) error {
		if len(ln.args) != n {
			return &Error{name, ln.num, fmt.Sprintf("%s takes %d operands, got %d", ln.op, n, len(ln.args))}
		}
		return nil
	}

	var err error
	switch d.Format {
	case isa.FormatRRR:
		if err = want(3); err != nil {
			return in, err
		}
		if in.Rd, err = reg(0); err != nil {
			return in, err
		}
		if in.Rs, err = reg(1); err != nil {
			return in, err
		}
		if in.Rt, err = reg(2); err != nil {
			return in, err
		}
	case isa.FormatRRI, isa.FormatMem:
		if err = want(3); err != nil {
			return in, err
		}
		if in.Rd, err = reg(0); err != nil {
			return in, err
		}
		if in.Rs, err = reg(1); err != nil {
			return in, err
		}
		v, err := imm(2)
		if err != nil {
			return in, err
		}
		in.Imm = int32(v)
	case isa.FormatRR:
		if err = want(2); err != nil {
			return in, err
		}
		if in.Rd, err = reg(0); err != nil {
			return in, err
		}
		if in.Rs, err = reg(1); err != nil {
			return in, err
		}
	case isa.FormatRI:
		if err = want(2); err != nil {
			return in, err
		}
		if in.Rd, err = reg(0); err != nil {
			return in, err
		}
		v, err := imm(1)
		if err != nil {
			return in, err
		}
		in.Imm = int32(v)
	case isa.FormatBranchRR:
		if err = want(3); err != nil {
			return in, err
		}
		if in.Rs, err = reg(0); err != nil {
			return in, err
		}
		if in.Rt, err = reg(1); err != nil {
			return in, err
		}
		off, err := branchTarget(2)
		if err != nil {
			return in, err
		}
		in.Imm = off
	case isa.FormatBranchRI:
		if err = want(3); err != nil {
			return in, err
		}
		if in.Rs, err = reg(0); err != nil {
			return in, err
		}
		c, err := imm(1)
		if err != nil {
			return in, err
		}
		// Signed compares decode the field via plan.DecodeImm6; the
		// unsigned/bit forms read it raw, so the assembler accepts the
		// union of both encodable ranges.
		if c < plan.MinImm6 || c > (1<<plan.Imm6Bits)-1 {
			return fail("%s constant %d out of range [%d,%d]", ln.op, c, plan.MinImm6, (1<<plan.Imm6Bits)-1)
		}
		in.Rt = uint8(c) & ((1 << plan.Imm6Bits) - 1)
		off, err := branchTarget(2)
		if err != nil {
			return in, err
		}
		in.Imm = off
	case isa.FormatBranchR:
		if err = want(2); err != nil {
			return in, err
		}
		if in.Rs, err = reg(0); err != nil {
			return in, err
		}
		off, err := branchTarget(1)
		if err != nil {
			return in, err
		}
		in.Imm = off
	case isa.FormatJump:
		if err = want(1); err != nil {
			return in, err
		}
		v, err := imm(0)
		if err != nil {
			return in, err
		}
		if s, ok := syms[strings.TrimSpace(ln.args[0])]; ok && !s.isCode {
			return fail("%s target %q is a data label", ln.op, ln.args[0])
		}
		in.Imm = int32(v)
	case isa.FormatJumpR:
		if err = want(1); err != nil {
			return in, err
		}
		if in.Rs, err = reg(0); err != nil {
			return in, err
		}
	case isa.FormatNone:
		if err = want(0); err != nil {
			return in, err
		}
	default:
		return fail("cannot assemble format for %s", ln.op)
	}
	return in, nil
}

// resolve evaluates an operand expression: a number, a symbol, or
// symbol+offset / symbol-offset.
func (a *Assembler) resolve(expr string, syms map[string]symbol, ln *sourceLine, name string) (int64, error) {
	expr = strings.TrimSpace(expr)
	if expr == "" {
		return 0, &Error{name, ln.num, "empty operand"}
	}
	// Split a trailing +N / -N (but not a leading sign).
	base, off := expr, int64(0)
	for i := 1; i < len(expr); i++ {
		if expr[i] == '+' || expr[i] == '-' {
			o, err := strconv.ParseInt(expr[i:], 0, 64)
			if err == nil {
				base, off = strings.TrimSpace(expr[:i]), o
			}
			break
		}
	}
	if v, err := strconv.ParseInt(base, 0, 64); err == nil {
		return v + off, nil
	}
	if s, ok := syms[base]; ok {
		return s.value + off, nil
	}
	return 0, &Error{name, ln.num, fmt.Sprintf("undefined symbol %q", base)}
}

func parseNumber(args []string, ln *sourceLine, name string) (int64, error) {
	if len(args) != 1 {
		return 0, &Error{name, ln.num, fmt.Sprintf("%s takes one numeric argument", ln.op)}
	}
	v, err := strconv.ParseInt(strings.TrimSpace(args[0]), 0, 64)
	if err != nil {
		return 0, &Error{name, ln.num, fmt.Sprintf("bad number %q", args[0])}
	}
	if v < 0 {
		return 0, &Error{name, ln.num, fmt.Sprintf("%s argument must be non-negative", ln.op)}
	}
	return v, nil
}

// scan tokenizes the source into logical lines.
func scan(name, src string) ([]sourceLine, error) {
	raws := strings.Split(src, "\n")
	out := make([]sourceLine, 0, len(raws))
	var pendingLabels []labelRef
	for num, raw := range raws {
		line := stripComment(raw)
		line = strings.TrimSpace(line)
		lineNum := num + 1

		// Peel off leading labels.
		for {
			idx := strings.Index(line, ":")
			if idx < 0 {
				break
			}
			lbl := strings.TrimSpace(line[:idx])
			if !isIdent(lbl) {
				return nil, &Error{name, lineNum, fmt.Sprintf("invalid label %q", lbl)}
			}
			pendingLabels = append(pendingLabels, labelRef{name: lbl, line: lineNum})
			line = strings.TrimSpace(line[idx+1:])
		}
		if line == "" {
			continue
		}

		var op, rest string
		if i := strings.IndexAny(line, " \t"); i >= 0 {
			op, rest = line[:i], strings.TrimSpace(line[i+1:])
		} else {
			op = line
		}
		ln := sourceLine{num: lineNum, labels: pendingLabels, op: strings.ToLower(op)}
		pendingLabels = nil
		if rest != "" {
			ln.args = strings.Split(rest, ",")
			for i, f := range ln.args {
				ln.args[i] = strings.TrimSpace(f)
			}
		}
		out = append(out, ln)
	}
	if len(pendingLabels) > 0 {
		// Labels at end of file attach to a synthetic trailing line so
		// they resolve to the end-of-code index.
		out = append(out, sourceLine{num: strings.Count(src, "\n") + 1, labels: pendingLabels})
	}
	return out, nil
}

func stripComment(s string) string {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case ';', '#':
			return s[:i]
		case '/':
			if i+1 < len(s) && s[i+1] == '/' {
				return s[:i]
			}
		}
	}
	return s
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == '.':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
