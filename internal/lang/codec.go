package lang

import (
	"encoding/binary"
	"fmt"

	"repro/internal/event"
)

// This file inverts the signature encoding of sig.go. The encoding was
// introduced purely for fingerprinting, but because it is prefix-free
// and records every distinguishing field it doubles as a compact
// serialization of residual programs — which the backends' snapshots
// (the explorer's panic repro format) embed. The decoder is strict:
// any unknown tag, truncated field, or out-of-range operator is an
// error, never a panic, so a corrupted snapshot fails loudly at
// restore time.

func decodeUvarint(data []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, nil, fmt.Errorf("lang: truncated uvarint")
	}
	return v, data[n:], nil
}

func decodeVarint(data []byte) (int64, []byte, error) {
	v, n := binary.Varint(data)
	if n <= 0 {
		return 0, nil, fmt.Errorf("lang: truncated varint")
	}
	return v, data[n:], nil
}

func decodeString(data []byte) (string, []byte, error) {
	n, rest, err := decodeUvarint(data)
	if err != nil {
		return "", nil, err
	}
	if n > uint64(len(rest)) {
		return "", nil, fmt.Errorf("lang: string length %d exceeds remaining %d bytes", n, len(rest))
	}
	return string(rest[:n]), rest[n:], nil
}

// DecodeExprSig decodes one expression from the front of data,
// returning the expression and the unconsumed remainder.
func DecodeExprSig(data []byte) (Expr, []byte, error) {
	if len(data) == 0 {
		return nil, nil, fmt.Errorf("lang: truncated expression")
	}
	tag, rest := data[0], data[1:]
	switch tag {
	case sigLit:
		v, rest, err := decodeVarint(rest)
		if err != nil {
			return nil, nil, err
		}
		return Lit{V: event.Val(v)}, rest, nil
	case sigLoad:
		if len(rest) == 0 {
			return nil, nil, fmt.Errorf("lang: truncated load flags")
		}
		flags := rest[0]
		if flags > 3 {
			return nil, nil, fmt.Errorf("lang: invalid load flags %#x", flags)
		}
		x, rest, err := decodeString(rest[1:])
		if err != nil {
			return nil, nil, err
		}
		return Load{X: event.Var(x), Acq: flags&1 != 0, NA: flags&2 != 0}, rest, nil
	case sigIdxLoad:
		if len(rest) == 0 {
			return nil, nil, fmt.Errorf("lang: truncated indexed-load flags")
		}
		flags := rest[0]
		if flags > 3 {
			return nil, nil, fmt.Errorf("lang: invalid indexed-load flags %#x", flags)
		}
		a, rest, err := decodeString(rest[1:])
		if err != nil {
			return nil, nil, err
		}
		i, rest, err := DecodeExprSig(rest)
		if err != nil {
			return nil, nil, err
		}
		return IdxLoad{A: event.Var(a), I: i, Acq: flags&1 != 0, NA: flags&2 != 0}, rest, nil
	case sigUn:
		if len(rest) == 0 {
			return nil, nil, fmt.Errorf("lang: truncated unary operator")
		}
		op := UnOp(rest[0])
		if op > OpNeg {
			return nil, nil, fmt.Errorf("lang: invalid unary operator %d", op)
		}
		e, rest, err := DecodeExprSig(rest[1:])
		if err != nil {
			return nil, nil, err
		}
		return Un{Op: op, E: e}, rest, nil
	case sigBin:
		if len(rest) == 0 {
			return nil, nil, fmt.Errorf("lang: truncated binary operator")
		}
		op := BinOp(rest[0])
		if op > OpSub {
			return nil, nil, fmt.Errorf("lang: invalid binary operator %d", op)
		}
		l, rest, err := DecodeExprSig(rest[1:])
		if err != nil {
			return nil, nil, err
		}
		r, rest, err := DecodeExprSig(rest)
		if err != nil {
			return nil, nil, err
		}
		return Bin{Op: op, L: l, R: r}, rest, nil
	default:
		return nil, nil, fmt.Errorf("lang: unknown expression tag %d", tag)
	}
}

// DecodeComSig decodes one command from the front of data, returning
// the command and the unconsumed remainder.
func DecodeComSig(data []byte) (Com, []byte, error) {
	if len(data) == 0 {
		return nil, nil, fmt.Errorf("lang: truncated command")
	}
	tag, rest := data[0], data[1:]
	switch tag {
	case sigSkip:
		return Skip{}, rest, nil
	case sigAssign:
		if len(rest) == 0 {
			return nil, nil, fmt.Errorf("lang: truncated assign flags")
		}
		flags := rest[0]
		if flags&^sigAssignFlags != 0 {
			return nil, nil, fmt.Errorf("lang: invalid assign flags %#x", flags)
		}
		x, rest, err := decodeString(rest[1:])
		if err != nil {
			return nil, nil, err
		}
		var idx Expr
		if flags&sigAssignIdx != 0 {
			idx, rest, err = DecodeExprSig(rest)
			if err != nil {
				return nil, nil, err
			}
		}
		e, rest, err := DecodeExprSig(rest)
		if err != nil {
			return nil, nil, err
		}
		return Assign{X: event.Var(x), Idx: idx, E: e,
			Rel: flags&sigAssignRel != 0, NA: flags&sigAssignNA != 0}, rest, nil
	case sigSwap:
		x, rest, err := decodeString(rest)
		if err != nil {
			return nil, nil, err
		}
		n, rest, err := decodeVarint(rest)
		if err != nil {
			return nil, nil, err
		}
		return Swap{X: event.Var(x), N: event.Val(n)}, rest, nil
	case sigCas:
		if len(rest) == 0 {
			return nil, nil, fmt.Errorf("lang: truncated cas flags")
		}
		flags := rest[0]
		if flags > 1 {
			return nil, nil, fmt.Errorf("lang: invalid cas flags %#x", flags)
		}
		x, rest, err := decodeString(rest[1:])
		if err != nil {
			return nil, nil, err
		}
		var idx Expr
		if flags&1 != 0 {
			idx, rest, err = DecodeExprSig(rest)
			if err != nil {
				return nil, nil, err
			}
		}
		old, rest, err := DecodeExprSig(rest)
		if err != nil {
			return nil, nil, err
		}
		nw, rest, err := DecodeExprSig(rest)
		if err != nil {
			return nil, nil, err
		}
		then, rest, err := DecodeComSig(rest)
		if err != nil {
			return nil, nil, err
		}
		els, rest, err := DecodeComSig(rest)
		if err != nil {
			return nil, nil, err
		}
		return Cas{X: event.Var(x), Idx: idx, Old: old, New: nw, Then: then, Else: els}, rest, nil
	case sigSeq:
		c1, rest, err := DecodeComSig(rest)
		if err != nil {
			return nil, nil, err
		}
		c2, rest, err := DecodeComSig(rest)
		if err != nil {
			return nil, nil, err
		}
		return Seq{C1: c1, C2: c2}, rest, nil
	case sigIf:
		b, rest, err := DecodeExprSig(rest)
		if err != nil {
			return nil, nil, err
		}
		then, rest, err := DecodeComSig(rest)
		if err != nil {
			return nil, nil, err
		}
		els, rest, err := DecodeComSig(rest)
		if err != nil {
			return nil, nil, err
		}
		return If{B: b, Then: then, Else: els}, rest, nil
	case sigWhile:
		guard, rest, err := DecodeExprSig(rest)
		if err != nil {
			return nil, nil, err
		}
		cur, rest, err := DecodeExprSig(rest)
		if err != nil {
			return nil, nil, err
		}
		body, rest, err := DecodeComSig(rest)
		if err != nil {
			return nil, nil, err
		}
		return While{Guard: guard, Cur: cur, Body: body}, rest, nil
	case sigLabel:
		name, rest, err := decodeString(rest)
		if err != nil {
			return nil, nil, err
		}
		c, rest, err := DecodeComSig(rest)
		if err != nil {
			return nil, nil, err
		}
		return Label{Name: name, C: c}, rest, nil
	default:
		return nil, nil, fmt.Errorf("lang: unknown command tag %d", tag)
	}
}

// DecodeProgSig decodes a program from the front of data, returning
// the program and the unconsumed remainder. It is the exact inverse of
// AppendProgSig: for every program p, DecodeProgSig(AppendProgSig(nil,
// p)) returns a program with the same signature (and hence the same
// canonical rendering and fingerprint).
func DecodeProgSig(data []byte) (Prog, []byte, error) {
	n, rest, err := decodeUvarint(data)
	if err != nil {
		return nil, nil, err
	}
	const maxThreads = 1 << 16 // sanity cap against corrupted length prefixes
	if n > maxThreads {
		return nil, nil, fmt.Errorf("lang: implausible thread count %d", n)
	}
	p := make(Prog, n)
	for i := range p {
		p[i], rest, err = DecodeComSig(rest)
		if err != nil {
			return nil, nil, fmt.Errorf("lang: thread %d: %w", i, err)
		}
	}
	return p, rest, nil
}
