package machine

import (
	"testing"

	"simsym/internal/system"
)

// benchMachine builds a machine over Fig2 for micro-benchmarks.
func benchMachine(b *testing.B, instr system.InstrSet, build func(bl *Builder)) *Machine {
	b.Helper()
	bl := NewBuilder()
	build(bl)
	prog, err := bl.Build()
	if err != nil {
		b.Fatal(err)
	}
	m, err := New(system.Fig2(), instr, prog)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkStepQ measures raw per-instruction cost of the Q machine on a
// post/peek loop.
func BenchmarkStepQ(b *testing.B) {
	m := benchMachine(b, system.InstrQ, func(bl *Builder) {
		bl.Label("loop")
		bl.Post("n", "init")
		bl.Peek("n", "x")
		bl.Post("m", "init")
		bl.Peek("m", "y")
		bl.Jump("loop")
	})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := m.Step(i % 3); err != nil {
			b.Fatal(err)
		}
	}
}

// Per-instruction-class step benches: these pin the acceptance criterion
// that the compiled Step does no map operations and no name resolutions —
// 0 allocs/op on the jump paths, ≤1 alloc/op on locals-mutating paths
// (the single alloc being value boxing where it occurs, not frame or
// operand bookkeeping).

// BenchmarkStepReadWrite measures an S-machine read/write loop.
func BenchmarkStepReadWrite(b *testing.B) {
	m := benchMachine(b, system.InstrS, func(bl *Builder) {
		bl.Label("loop")
		bl.Write("n", "init")
		bl.Read("n", "x")
		bl.Jump("loop")
	})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := m.Step(i % 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStepLockUnlock measures an L-machine lock/unlock loop.
func BenchmarkStepLockUnlock(b *testing.B) {
	m := benchMachine(b, system.InstrL, func(bl *Builder) {
		bl.Label("loop")
		bl.Lock("n", "got")
		bl.Unlock("n")
		bl.Jump("loop")
	})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := m.Step(i % 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStepCompute measures a pure local computation loop.
func BenchmarkStepCompute(b *testing.B) {
	m := benchMachine(b, system.InstrS, func(bl *Builder) {
		n := bl.Sym("n")
		bl.Compute(func(r *Regs) { r.Set(n, 0) })
		bl.Label("loop")
		bl.Compute(func(r *Regs) { r.Set(n, (r.Int(n)+1)%128) })
		bl.Jump("loop")
	})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := m.Step(i % 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStepJump measures the pure control-flow path: an unconditional
// jump self-loop. Must be 0 allocs/op.
func BenchmarkStepJump(b *testing.B) {
	m := benchMachine(b, system.InstrS, func(bl *Builder) {
		bl.Label("loop")
		bl.Jump("loop")
	})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := m.Step(i % 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStepJumpIf measures the conditional control-flow path: a
// JumpIf whose condition reads a slot. Must be 0 allocs/op.
func BenchmarkStepJumpIf(b *testing.B) {
	m := benchMachine(b, system.InstrS, func(bl *Builder) {
		n := bl.Sym("n")
		bl.Compute(func(r *Regs) { r.Set(n, 1) })
		bl.Label("loop")
		bl.JumpIf(func(r *Regs) bool { return r.Int(n) > 0 }, "loop")
		bl.Halt()
	})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := m.Step(i % 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFingerprint measures the whole-state encode path in its
// three regimes:
//
//	warm — AppendStateKey of one unchanging state into a reused buffer:
//	       every window is encoded, and the call MUST report 0 allocs/op
//	       (the gate in scripts/benchgate.sh enforces it).
//	step — one step, then the whole key, as a running machine's
//	       repeated Fingerprint() pays it.
//	string — the test oracle's string encoding (FingerprintOracle, the
//	       original Fingerprint), kept for scale.
func BenchmarkFingerprint(b *testing.B) {
	setup := func() *Machine {
		return benchMachine(b, system.InstrQ, func(bl *Builder) {
			bl.Label("loop")
			bl.Post("n", "init")
			bl.Peek("n", "x")
			bl.Jump("loop")
		})
	}
	b.Run("warm", func(b *testing.B) {
		m := setup()
		for i := 0; i < 9; i++ {
			if err := m.Step(i % 3); err != nil {
				b.Fatal(err)
			}
		}
		buf := make([]byte, 0, 4*len(m.AppendStateKey(nil, nil, nil)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = m.AppendStateKey(buf[:0], nil, nil)
		}
	})
	b.Run("step", func(b *testing.B) {
		m := setup()
		buf := make([]byte, 0, 256)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := m.Step(i % 3); err != nil {
				b.Fatal(err)
			}
			buf = m.AppendStateKey(buf[:0], nil, nil)
		}
	})
	b.Run("string", func(b *testing.B) {
		m := setup()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := m.Step(i % 3); err != nil {
				b.Fatal(err)
			}
			_ = m.FingerprintOracle()
		}
	})
}

// BenchmarkClone measures an allocating copy: a new machine with its
// own frames, locals, variables and Q subvalue slots.
func BenchmarkClone(b *testing.B) {
	m := benchMachine(b, system.InstrQ, func(bl *Builder) {
		a, x := bl.Sym("a"), bl.Sym("b")
		bl.Compute(func(r *Regs) { r.Set(a, 1); r.Set(x, "x") })
		bl.Post("n", "init")
		bl.Halt()
	})
	for p := 0; p < 3; p++ {
		for k := 0; k < 3; k++ {
			if err := m.Step(p); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = m.Clone()
	}
}

// BenchmarkCloneStep measures a copy followed by one post or peek on the
// copy. fresh copies with Clone, as a one-off probe does; reuse copies
// with CloneInto into one machine, the adversary harness's per-step unit
// when transition predicates need the state before each step.
func BenchmarkCloneStep(b *testing.B) {
	m := benchMachine(b, system.InstrQ, func(bl *Builder) {
		bl.Label("loop")
		bl.Post("n", "init")
		bl.Peek("n", "x")
		bl.Jump("loop")
	})
	for p := 0; p < 3; p++ {
		if err := m.Step(p); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c := m.Clone()
			if err := c.Step(i % 3); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reuse", func(b *testing.B) {
		c := m.Clone()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.CloneInto(c)
			if err := c.Step(i % 3); err != nil {
				b.Fatal(err)
			}
		}
	})
}
