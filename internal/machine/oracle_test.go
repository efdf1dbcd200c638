package machine

// Test oracles for the compiled encoders. They reproduce the
// pre-compilation string encodings from the slot representation, so
// the cross-check tests and FuzzStateKeyOracle (the external test
// package sees these methods too) can prove the binary encodings induce
// the same equality classes.

import (
	"encoding/binary"
	"slices"
	"sort"

	"simsym/internal/canon"
	"simsym/internal/system"
)

// sortedSyms lists the program's slots ordered by name — the iteration
// order of the legacy sorted-name fingerprint.
func (p *Program) sortedSyms() []Sym {
	out := make([]Sym, len(p.names))
	for i := range out {
		out[i] = Sym(i)
	}
	sort.Slice(out, func(a, b int) bool { return p.names[out[a]] < p.names[out[b]] })
	return out
}

// ProcFingerprintOracle reproduces the pre-compilation processor encoding
// — locals as a count-prefixed, name-sorted (name, value) list — from the
// slot representation, followed under Q by the processor's own posts in
// the same form, keyed by the name it posted under. It exists purely as
// a cross-check oracle for the compiled fingerprint path (the way
// partition.FixpointNaive anchors the interned similarity path):
// equality classes under the oracle encoding must match equality
// classes under AppendProcFingerprint.
func (m *Machine) ProcFingerprintOracle(p int) string {
	fr := m.frameAt(p)
	buf := make([]byte, 0, 48)
	buf = binary.AppendVarint(buf, int64(fr.PC))
	if fr.Halted {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	n := 0
	for _, v := range fr.Locals {
		if v != unset {
			n++
		}
	}
	buf = binary.AppendUvarint(buf, uint64(n))
	for _, s := range m.program.sortedSyms() {
		v := fr.Locals[s]
		if v == unset {
			continue
		}
		buf = canon.AppendLenPrefixed(buf, m.program.names[s])
		buf = appendLocalValueOracle(buf, v)
	}
	if m.instr == system.InstrQ {
		names := slices.Clone(m.sys.Names)
		slices.Sort(names)
		posts := 0
		for _, v := range m.sys.Nbr[p] {
			if m.varSub[v][p] != unset {
				posts++
			}
		}
		buf = binary.AppendUvarint(buf, uint64(posts))
		for _, name := range names {
			v, _ := m.sys.NNbr(p, name)
			if sub := m.varSub[v][p]; sub != unset {
				buf = canon.AppendLenPrefixed(buf, string(name))
				buf = appendLocalValueOracle(buf, sub)
			}
		}
	}
	return string(buf)
}

// appendLocalValueOracle is the original local-value encoding: scalars
// direct, everything composite (including PeekResult) through the 'c'
// canonical-string fallback. appendLocalValue since gained a direct
// PeekResult path; the oracle keeps the original bytes so its encoding
// stays frozen while the fast path evolves.
func appendLocalValueOracle(buf []byte, v any) []byte {
	switch x := v.(type) {
	case nil:
		return append(buf, 'n')
	case bool:
		if x {
			return append(buf, 'b', 1)
		}
		return append(buf, 'b', 0)
	case int:
		buf = append(buf, 'i')
		return binary.AppendVarint(buf, int64(x))
	case string:
		buf = append(buf, 's')
		return canon.AppendLenPrefixed(buf, x)
	default:
		buf = append(buf, 'c')
		return canon.AppendLenPrefixed(buf, canon.String(valueForCanon(v)))
	}
}

// VarFingerprintOracle reproduces the original variable encoding — the
// Q regime as "q"+canon.String of an {init, sub-multiset} map, S/L as
// the tagged lock-byte form. It anchors the direct binary encoding in
// appendVarFP the way ProcFingerprintOracle anchors the slot walk:
// equality classes under the two encodings must coincide.
func (m *Machine) VarFingerprintOracle(v int) string {
	if m.instr == system.InstrQ {
		sub := m.varSub[v]
		ms := make(canon.Multiset, 0, len(sub))
		for _, s := range sub {
			if s != unset {
				ms = append(ms, s)
			}
		}
		return "q" + canon.String(map[string]any{"init": m.sys.VarInit[v], "sub": ms})
	}
	buf := make([]byte, 0, 24)
	buf = append(buf, 'v')
	if m.lockedAt(v) {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = appendLocalValueOracle(buf, m.varValAt(v))
	return string(buf)
}

// FingerprintOracle composes whole-state fingerprints from the oracle
// component encodings — byte-identical to the pre-compilation string
// Fingerprint. Cross-check tests compare its equality classes against
// the state key's.
func (m *Machine) FingerprintOracle() string {
	procs := make([]any, len(m.frames))
	for p := range m.frames {
		procs[p] = m.ProcFingerprintOracle(p)
	}
	vars := make([]any, len(m.varVal))
	for v := range m.varVal {
		vars[v] = m.VarFingerprintOracle(v)
	}
	return canon.String([]any{procs, vars})
}
