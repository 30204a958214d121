package lang

import (
	"encoding/binary"

	"repro/internal/fingerprint"
)

// This file provides a canonical binary encoding of commands and
// expressions, used by the explorer to fingerprint residual programs.
// It distinguishes exactly the structure that the String renderings
// canonicalise (node kinds, annotations, variables, literal values)
// but appends raw bytes instead of running fmt — program re-rendering
// was the hottest remaining allocation site on the exploration hot
// path once states were fingerprinted. The encoding is prefix-free:
// every node starts with a kind tag and all variable-length fields are
// length- or varint-encoded, so distinct programs cannot share an
// encoding.

// Node kind tags for the signature encoding.
const (
	sigSkip byte = iota + 1
	sigAssign
	sigSwap
	sigSeq
	sigIf
	sigWhile
	sigLabel
	sigLit
	sigLoad
	sigUn
	sigBin
	// Appended after the original tag set (PR 8): decoding order is
	// part of the snapshot format, so new nodes extend, never renumber.
	sigCas
	sigIdxLoad
)

// Assign signature flags. Rel/NA mirror the command's annotations;
// the index bit marks a symbolically indexed store, whose index
// expression is encoded between the variable and the right-hand side.
const (
	sigAssignRel   byte = 1
	sigAssignNA    byte = 2
	sigAssignIdx   byte = 4
	sigAssignFlags byte = sigAssignRel | sigAssignNA | sigAssignIdx
)

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// AppendExprSig appends the canonical encoding of e to buf.
func AppendExprSig(buf []byte, e Expr) []byte {
	switch x := e.(type) {
	case Lit:
		buf = append(buf, sigLit)
		return binary.AppendVarint(buf, int64(x.V))
	case Load:
		var flags byte
		if x.Acq {
			flags |= 1
		}
		if x.NA {
			flags |= 2
		}
		buf = append(buf, sigLoad, flags)
		return appendString(buf, string(x.X))
	case IdxLoad:
		var flags byte
		if x.Acq {
			flags |= 1
		}
		if x.NA {
			flags |= 2
		}
		buf = append(buf, sigIdxLoad, flags)
		buf = appendString(buf, string(x.A))
		return AppendExprSig(buf, x.I)
	case Un:
		buf = append(buf, sigUn, byte(x.Op))
		return AppendExprSig(buf, x.E)
	case Bin:
		buf = append(buf, sigBin, byte(x.Op))
		buf = AppendExprSig(buf, x.L)
		return AppendExprSig(buf, x.R)
	default:
		panic("lang: AppendExprSig of unknown expression")
	}
}

// AppendComSig appends the canonical encoding of c to buf.
func AppendComSig(buf []byte, c Com) []byte {
	switch x := c.(type) {
	case Skip:
		return append(buf, sigSkip)
	case Assign:
		var flags byte
		if x.Rel {
			flags |= sigAssignRel
		}
		if x.NA {
			flags |= sigAssignNA
		}
		if x.Idx != nil {
			flags |= sigAssignIdx
		}
		buf = append(buf, sigAssign, flags)
		buf = appendString(buf, string(x.X))
		if x.Idx != nil {
			buf = AppendExprSig(buf, x.Idx)
		}
		return AppendExprSig(buf, x.E)
	case Swap:
		buf = append(buf, sigSwap)
		buf = appendString(buf, string(x.X))
		return binary.AppendVarint(buf, int64(x.N))
	case Cas:
		var flags byte
		if x.Idx != nil {
			flags |= 1
		}
		buf = append(buf, sigCas, flags)
		buf = appendString(buf, string(x.X))
		if x.Idx != nil {
			buf = AppendExprSig(buf, x.Idx)
		}
		buf = AppendExprSig(buf, x.Old)
		buf = AppendExprSig(buf, x.New)
		buf = AppendComSig(buf, x.Then)
		return AppendComSig(buf, x.Else)
	case Seq:
		buf = append(buf, sigSeq)
		buf = AppendComSig(buf, x.C1)
		return AppendComSig(buf, x.C2)
	case If:
		buf = append(buf, sigIf)
		buf = AppendExprSig(buf, x.B)
		buf = AppendComSig(buf, x.Then)
		return AppendComSig(buf, x.Else)
	case While:
		buf = append(buf, sigWhile)
		buf = AppendExprSig(buf, x.Guard)
		buf = AppendExprSig(buf, x.Cur)
		return AppendComSig(buf, x.Body)
	case Label:
		buf = append(buf, sigLabel)
		buf = appendString(buf, x.Name)
		return AppendComSig(buf, x.C)
	default:
		panic("lang: AppendComSig of unknown command")
	}
}

// AppendProgSig appends the canonical encoding of p to buf: the thread
// count followed by each thread's command.
func AppendProgSig(buf []byte, p Prog) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(p)))
	for _, c := range p {
		buf = AppendComSig(buf, c)
	}
	return buf
}

// ConfigFingerprint is the one definition of configuration identity
// shared by every backend: the 128-bit hash of a memory state's
// fingerprint followed by the signature of the program p. Backends
// compute it as Node.Fingerprint, which hashes the interned program's
// cached signature — the same bytes; this form re-serialises p and is
// what the incremental audit checks the cached one against.
func ConfigFingerprint(state fingerprint.FP, p Prog) fingerprint.FP {
	return configFingerprint(state, string(AppendProgSig(nil, p)))
}

func configFingerprint(state fingerprint.FP, sig string) fingerprint.FP {
	h := fingerprint.NewHasher()
	h.Word(state.Hi)
	h.Word(state.Lo)
	h.String(sig)
	return h.Sum()
}
