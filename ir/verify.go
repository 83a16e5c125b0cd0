package ir

import (
	"errors"
	"fmt"
)

// Verify checks structural and type well-formedness of a function:
// terminated blocks, phi placement and incoming edges, operand typing, and
// intrinsic call validity. All problems are collected and returned joined
// (errors.Join), so a builder bug with several symptoms surfaces them in
// one round trip instead of one fix-rerun cycle per error. Within a single
// instruction, checking stops at its first defect (later checks assume the
// earlier shape held).
func Verify(f *Function) error {
	if len(f.Blocks) == 0 {
		return fmt.Errorf("%s: no blocks", f.FName)
	}
	var errs []error
	add := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf(format, args...))
	}
	names := map[string]bool{}
	for _, p := range f.Params {
		if names[p.PName] {
			add("%s: duplicate name %%%s", f.FName, p.PName)
		}
		names[p.PName] = true
	}
	blockSet := map[*Block]bool{}
	for _, b := range f.Blocks {
		blockSet[b] = true
	}
	preds := f.Preds()

	for _, b := range f.Blocks {
		if b.Terminator() == nil {
			add("%s/%s: missing terminator", f.FName, b.BName)
		}
		seenNonPhi := false
		for idx, in := range b.Instrs {
			if in.HasResult() {
				if names[in.Name] {
					add("%s/%s: duplicate name %%%s", f.FName, b.BName, in.Name)
				}
				names[in.Name] = true
			}
			if in.Op.IsTerminator() && idx != len(b.Instrs)-1 {
				add("%s/%s: terminator %%%s not at block end", f.FName, b.BName, in.Name)
			}
			if in.Op == OpPhi {
				if seenNonPhi {
					add("%s/%s: phi %%%s after non-phi", f.FName, b.BName, in.Name)
				}
			} else {
				seenNonPhi = true
			}
			if err := verifyInstr(f, b, in, blockSet, preds); err != nil {
				errs = append(errs, err)
			}
		}
	}
	return errors.Join(errs...)
}

func verifyInstr(f *Function, b *Block, in *Instr, blocks map[*Block]bool, preds map[*Block][]*Block) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("%s/%s/%%%s: %s", f.FName, b.BName, in.Name, fmt.Sprintf(format, args...))
	}
	switch {
	case in.Op.IsBinOp():
		if len(in.Args) != 2 {
			return fail("binop needs 2 operands")
		}
		if !Equal(in.Args[0].Type(), in.Args[1].Type()) || !Equal(in.T, in.Args[0].Type()) {
			return fail("operand/result type mismatch: %s vs %s", in.Args[0].Type(), in.Args[1].Type())
		}
		isFP := in.Op == OpFAdd || in.Op == OpFSub || in.Op == OpFMul || in.Op == OpFDiv
		if isFP != IsFloat(in.T) {
			return fail("%s on %s", in.Op, in.T)
		}
	case in.Op == OpICmp:
		if len(in.Args) != 2 {
			return fail("icmp needs 2 operands")
		}
		if !IsInt(in.Args[0].Type()) && !IsPtr(in.Args[0].Type()) {
			return fail("icmp on %s", in.Args[0].Type())
		}
		if in.Pred < IEQ || in.Pred > IUGE {
			return fail("bad icmp predicate")
		}
	case in.Op == OpFCmp:
		if len(in.Args) != 2 {
			return fail("fcmp needs 2 operands")
		}
		if !IsFloat(in.Args[0].Type()) {
			return fail("fcmp on %s", in.Args[0].Type())
		}
		if in.Pred < FOEQ || in.Pred > FOGE {
			return fail("bad fcmp predicate")
		}
	case in.Op == OpLoad:
		if len(in.Args) < 1 {
			return fail("load needs an address operand")
		}
		pt, ok := in.Args[0].Type().(PtrType)
		if !ok {
			return fail("load from non-pointer")
		}
		if !Equal(pt.Elem, in.T) {
			return fail("load type %s from %s", in.T, pt)
		}
	case in.Op == OpStore:
		if len(in.Args) < 2 {
			return fail("store needs value and address operands")
		}
		pt, ok := in.Args[1].Type().(PtrType)
		if !ok {
			return fail("store to non-pointer")
		}
		if !Equal(pt.Elem, in.Args[0].Type()) {
			return fail("store %s to %s", in.Args[0].Type(), pt)
		}
	case in.Op == OpGEP:
		if len(in.Args) < 2 {
			return fail("gep needs a base pointer and at least one index")
		}
		if _, ok := in.Args[0].Type().(PtrType); !ok {
			return fail("gep on non-pointer")
		}
		for _, idx := range in.Args[1:] {
			if !IsInt(idx.Type()) {
				return fail("gep index of type %s", idx.Type())
			}
		}
		if _, ok := in.CheckedGEPStrides(); !ok {
			return fail("gep indexes through a non-array")
		}
	case in.Op == OpPhi:
		if len(in.Args) == 0 || len(in.Args) != len(in.Blocks) {
			return fail("phi with %d values, %d blocks", len(in.Args), len(in.Blocks))
		}
		pset := map[*Block]bool{}
		for _, p := range preds[b] {
			pset[p] = true
		}
		seen := map[*Block]bool{}
		for k, inBlk := range in.Blocks {
			if !Equal(in.Args[k].Type(), in.T) {
				return fail("phi incoming type %s != %s", in.Args[k].Type(), in.T)
			}
			if !pset[inBlk] {
				return fail("phi incoming from non-predecessor %s", inBlk.BName)
			}
			if seen[inBlk] {
				return fail("phi has duplicate incoming from %s", inBlk.BName)
			}
			seen[inBlk] = true
		}
		if len(seen) != len(pset) {
			return fail("phi covers %d of %d predecessors", len(seen), len(pset))
		}
	case in.Op == OpSelect:
		if len(in.Args) != 3 || !Equal(in.Args[0].Type(), I1) {
			return fail("select needs (i1, T, T)")
		}
		if !Equal(in.Args[1].Type(), in.Args[2].Type()) || !Equal(in.T, in.Args[1].Type()) {
			return fail("select arm types differ")
		}
	case in.Op == OpBr:
		switch len(in.Blocks) {
		case 1:
			if len(in.Args) != 0 {
				return fail("unconditional br with condition")
			}
		case 2:
			if len(in.Args) != 1 || !Equal(in.Args[0].Type(), I1) {
				return fail("conditional br needs i1")
			}
		default:
			return fail("br with %d targets", len(in.Blocks))
		}
		for _, t := range in.Blocks {
			if !blocks[t] {
				return fail("br to foreign block %s", t.BName)
			}
		}
	case in.Op == OpRet:
		if f.Ret.Kind() == KVoid {
			if len(in.Args) != 0 {
				return fail("ret with value in void function")
			}
		} else if len(in.Args) != 1 || !Equal(in.Args[0].Type(), f.Ret) {
			return fail("ret type mismatch")
		}
	case in.Op == OpCall:
		if !Intrinsics[in.Callee] {
			return fail("call to unknown intrinsic %q (user calls must be inlined)", in.Callee)
		}
		for _, a := range in.Args {
			if !Equal(a.Type(), in.T) {
				return fail("intrinsic arg type %s != result %s", a.Type(), in.T)
			}
		}
	case in.Op.IsCast():
		if len(in.Args) != 1 {
			return fail("cast needs one operand")
		}
		from, to := in.Args[0].Type(), in.T
		switch in.Op {
		case OpZExt, OpSExt:
			if !IsInt(from) || !IsInt(to) || from.Bits() >= to.Bits() {
				return fail("%s %s -> %s", in.Op, from, to)
			}
		case OpTrunc:
			if !IsInt(from) || !IsInt(to) || from.Bits() <= to.Bits() {
				return fail("trunc %s -> %s", from, to)
			}
		case OpFPExt:
			if !IsFloat(from) || !IsFloat(to) || from.Bits() >= to.Bits() {
				return fail("fpext %s -> %s", from, to)
			}
		case OpFPTrunc:
			if !IsFloat(from) || !IsFloat(to) || from.Bits() <= to.Bits() {
				return fail("fptrunc %s -> %s", from, to)
			}
		case OpFPToSI:
			if !IsFloat(from) || !IsInt(to) {
				return fail("fptosi %s -> %s", from, to)
			}
		case OpSIToFP:
			if !IsInt(from) || !IsFloat(to) {
				return fail("sitofp %s -> %s", from, to)
			}
		case OpBitcast:
			if from.Bits() != to.Bits() {
				return fail("bitcast %s -> %s width mismatch", from, to)
			}
		}
	default:
		return fail("unknown opcode %d", in.Op)
	}
	return nil
}

// VerifyModule verifies all functions in a module, collecting every
// function's problems into one joined error.
func VerifyModule(m *Module) error {
	var errs []error
	for _, f := range m.Funcs {
		if err := Verify(f); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
