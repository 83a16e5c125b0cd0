package ir

import (
	"fmt"
)

// Opcode enumerates the instruction set: the LLVM subset that MachSuite-
// style accelerator kernels compile to.
type Opcode int

// Opcodes.
const (
	OpInvalid Opcode = iota
	// Integer arithmetic.
	OpAdd
	OpSub
	OpMul
	OpSDiv
	OpUDiv
	OpSRem
	OpURem
	// Bitwise / shifts.
	OpAnd
	OpOr
	OpXor
	OpShl
	OpLShr
	OpAShr
	// Comparisons.
	OpICmp
	OpFCmp
	// Floating point arithmetic.
	OpFAdd
	OpFSub
	OpFMul
	OpFDiv
	// Memory.
	OpLoad
	OpStore
	OpGEP
	// SSA / control.
	OpPhi
	OpSelect
	OpBr
	OpRet
	OpCall
	// Casts.
	OpZExt
	OpSExt
	OpTrunc
	OpFPExt
	OpFPTrunc
	OpFPToSI
	OpSIToFP
	OpBitcast
)

var opNames = map[Opcode]string{
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpSDiv: "sdiv", OpUDiv: "udiv",
	OpSRem: "srem", OpURem: "urem",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpShl: "shl", OpLShr: "lshr", OpAShr: "ashr",
	OpICmp: "icmp", OpFCmp: "fcmp",
	OpFAdd: "fadd", OpFSub: "fsub", OpFMul: "fmul", OpFDiv: "fdiv",
	OpLoad: "load", OpStore: "store", OpGEP: "getelementptr",
	OpPhi: "phi", OpSelect: "select", OpBr: "br", OpRet: "ret", OpCall: "call",
	OpZExt: "zext", OpSExt: "sext", OpTrunc: "trunc",
	OpFPExt: "fpext", OpFPTrunc: "fptrunc", OpFPToSI: "fptosi", OpSIToFP: "sitofp",
	OpBitcast: "bitcast",
}

// String returns the LLVM mnemonic.
func (o Opcode) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// OpcodeByName maps a mnemonic back to its opcode (OpInvalid if unknown).
func OpcodeByName(s string) Opcode {
	for op, name := range opNames {
		if name == s {
			return op
		}
	}
	return OpInvalid
}

// IsBinOp reports whether o is a two-operand arithmetic/bitwise op.
func (o Opcode) IsBinOp() bool {
	switch o {
	case OpAdd, OpSub, OpMul, OpSDiv, OpUDiv, OpSRem, OpURem,
		OpAnd, OpOr, OpXor, OpShl, OpLShr, OpAShr,
		OpFAdd, OpFSub, OpFMul, OpFDiv:
		return true
	}
	return false
}

// IsCast reports whether o is a conversion.
func (o Opcode) IsCast() bool {
	switch o {
	case OpZExt, OpSExt, OpTrunc, OpFPExt, OpFPTrunc, OpFPToSI, OpSIToFP, OpBitcast:
		return true
	}
	return false
}

// IsTerminator reports whether o ends a basic block.
func (o Opcode) IsTerminator() bool { return o == OpBr || o == OpRet }

// IsMemAccess reports whether o touches memory.
func (o Opcode) IsMemAccess() bool { return o == OpLoad || o == OpStore }

// Pred is a comparison predicate shared by icmp and fcmp.
type Pred int

// Predicates. Integer predicates apply to icmp; ordered float predicates
// to fcmp.
const (
	PredInvalid Pred = iota
	IEQ
	INE
	ISLT
	ISLE
	ISGT
	ISGE
	IULT
	IULE
	IUGT
	IUGE
	FOEQ
	FONE
	FOLT
	FOLE
	FOGT
	FOGE
)

var predNames = map[Pred]string{
	IEQ: "eq", INE: "ne", ISLT: "slt", ISLE: "sle", ISGT: "sgt", ISGE: "sge",
	IULT: "ult", IULE: "ule", IUGT: "ugt", IUGE: "uge",
	FOEQ: "oeq", FONE: "one", FOLT: "olt", FOLE: "ole", FOGT: "ogt", FOGE: "oge",
}

// String returns the LLVM predicate spelling.
func (p Pred) String() string {
	if s, ok := predNames[p]; ok {
		return s
	}
	return fmt.Sprintf("pred(%d)", int(p))
}

// PredByName maps a predicate spelling back (PredInvalid if unknown).
func PredByName(s string) Pred {
	for p, name := range predNames {
		if name == s {
			return p
		}
	}
	return PredInvalid
}

// Instr is an SSA instruction. Instructions with a non-void type are also
// Values (their result).
type Instr struct {
	Op   Opcode
	T    Type // result type (Void for store/br/ret)
	Name string
	// Args are value operands. Layout by opcode:
	//   binops, cmps:   [a, b]
	//   load:           [ptr]
	//   store:          [val, ptr]
	//   gep:            [ptr, idx...]
	//   phi:            incoming values (parallel to Blocks)
	//   select:         [cond, a, b]
	//   br:             [] or [cond]
	//   ret:            [] or [v]
	//   call:           args
	//   casts:          [v]
	Args []Value
	// Blocks are block operands: br targets ([then] or [then, else]) and
	// phi incoming blocks (parallel to Args).
	Blocks []*Block
	Pred   Pred   // for icmp/fcmp
	Callee string // for call
	blk    *Block
}

func (i *Instr) Type() Type    { return i.T }
func (i *Instr) Ident() string { return "%" + i.Name }

// Block returns the basic block containing the instruction.
func (i *Instr) Block() *Block { return i.blk }

// HasResult reports whether the instruction defines an SSA value.
func (i *Instr) HasResult() bool { return i.T.Kind() != KVoid }

// GEPStrides returns, for a GEP instruction, the byte stride multiplied by
// each index operand: offset = sum(idx[k] * stride[k]). It is the panicking
// form of CheckedGEPStrides for programmatic callers.
func (i *Instr) GEPStrides() []int64 {
	strides, ok := i.CheckedGEPStrides()
	if !ok {
		panic(fmt.Sprintf("ir: GEPStrides on malformed GEP %%%s", i.Name))
	}
	return strides
}

// CheckedGEPStrides is GEPStrides for callers that must turn a malformed
// GEP into an error: it reports false when the instruction is not a GEP
// over a pointer with at least one index, or when an index beyond the
// first steps through a non-array type.
func (i *Instr) CheckedGEPStrides() ([]int64, bool) {
	if i.Op != OpGEP || len(i.Args) < 2 {
		return nil, false
	}
	base, ok := i.Args[0].Type().(PtrType)
	if !ok {
		return nil, false
	}
	strides := make([]int64, len(i.Args)-1)
	cur := base.Elem
	strides[0] = int64(cur.SizeBytes())
	for k := 1; k < len(strides); k++ {
		at, ok := cur.(ArrayType)
		if !ok {
			return nil, false
		}
		cur = at.Elem
		strides[k] = int64(cur.SizeBytes())
	}
	return strides, true
}

// GEPElem returns the pointee type of a GEP's result, or false when an
// index beyond the first tries to step through a non-array type — the
// checked form the parser needs to turn malformed input into an error.
func GEPElem(base PtrType, nIdx int) (Type, bool) {
	cur := base.Elem
	for k := 1; k < nIdx; k++ {
		at, ok := cur.(ArrayType)
		if !ok {
			return nil, false
		}
		cur = at.Elem
	}
	return cur, true
}

// GEPResultElem is the panicking form of GEPElem for programmatic
// construction, where indexing through a non-array is a caller bug.
func GEPResultElem(base PtrType, nIdx int) Type {
	t, ok := GEPElem(base, nIdx)
	if !ok {
		panic("ir: GEP indexes through non-array")
	}
	return t
}

// Block is a basic block: a straight-line instruction list ending in a
// terminator.
type Block struct {
	BName  string
	Instrs []*Instr
	fn     *Function
}

// Name returns the block label.
func (b *Block) Name() string { return b.BName }

// Func returns the containing function.
func (b *Block) Func() *Function { return b.fn }

// Terminator returns the final instruction (nil if the block is empty or
// unterminated).
func (b *Block) Terminator() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	last := b.Instrs[len(b.Instrs)-1]
	if !last.Op.IsTerminator() {
		return nil
	}
	return last
}

// Succs returns the successor blocks.
func (b *Block) Succs() []*Block {
	t := b.Terminator()
	if t == nil || t.Op == OpRet {
		return nil
	}
	return t.Blocks
}

// append adds an instruction and claims ownership.
func (b *Block) append(i *Instr) {
	i.blk = b
	b.Instrs = append(b.Instrs, i)
}

// Function is a single accelerator kernel: parameters and a CFG. Entry is
// Blocks[0].
type Function struct {
	FName  string
	Params []*Param
	Ret    Type
	Blocks []*Block
	mod    *Module
}

// Name returns the function name.
func (f *Function) Name() string { return f.FName }

// Entry returns the entry block.
func (f *Function) Entry() *Block {
	if len(f.Blocks) == 0 {
		return nil
	}
	return f.Blocks[0]
}

// BlockByName finds a block by label.
func (f *Function) BlockByName(name string) *Block {
	for _, b := range f.Blocks {
		if b.BName == name {
			return b
		}
	}
	return nil
}

// NewBlock appends a fresh block with a unique-ified label.
func (f *Function) NewBlock(name string) *Block {
	base := name
	n := 1
	for f.BlockByName(name) != nil {
		name = fmt.Sprintf("%s.%d", base, n)
		n++
	}
	b := &Block{BName: name, fn: f}
	f.Blocks = append(f.Blocks, b)
	return b
}

// Preds computes the predecessor map for all blocks.
func (f *Function) Preds() map[*Block][]*Block {
	preds := make(map[*Block][]*Block, len(f.Blocks))
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			preds[s] = append(preds[s], b)
		}
	}
	return preds
}

// NumInstrs counts instructions across all blocks.
func (f *Function) NumInstrs() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// Module is a set of functions and globals — one "accelerated application".
type Module struct {
	Name    string
	Funcs   []*Function
	Globals []*Global
}

// NewModule creates an empty module.
func NewModule(name string) *Module { return &Module{Name: name} }

// Func finds a function by name.
func (m *Module) Func(name string) *Function {
	for _, f := range m.Funcs {
		if f.FName == name {
			return f
		}
	}
	return nil
}

// GlobalByName finds a global by name.
func (m *Module) GlobalByName(name string) *Global {
	for _, g := range m.Globals {
		if g.GName == name {
			return g
		}
	}
	return nil
}

// AddGlobal registers a global buffer.
func (m *Module) AddGlobal(name string, elem Type) *Global {
	g := &Global{GName: name, Elem: elem}
	m.Globals = append(m.Globals, g)
	return g
}

// NewFunction creates a function and registers it.
func (m *Module) NewFunction(name string, ret Type, params ...*Param) *Function {
	f := &Function{FName: name, Ret: ret, Params: params, mod: m}
	for i, p := range params {
		p.Index = i
	}
	m.Funcs = append(m.Funcs, f)
	return f
}

// P constructs a parameter (index filled in by NewFunction).
func P(name string, t Type) *Param { return &Param{PName: name, T: t} }
