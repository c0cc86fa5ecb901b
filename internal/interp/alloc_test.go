package interp

import (
	"testing"

	"hintm/internal/ir"
	"hintm/internal/mem"
)

// The decoded-instruction step loop is the simulator's innermost loop; once
// a thread is past its allocas, stepping must not allocate — neither one
// instruction at a time (Step) nor in register-only blocks (StepBlock),
// including the Call and Ret inside the loop, whose frames come from the
// thread's pool.
func TestStepLoopDoesNotAllocate(t *testing.T) {
	b := ir.NewBuilder("m")
	b.Global("acc", 1)
	inc := b.Function("inc", 1)
	inc.Ret(inc.AddI(inc.Param(0), 1))
	f := b.Function("main", 0)
	loop := f.NewBlock("loop")
	done := f.NewBlock("done")
	i := f.C(0)
	g := f.GlobalAddr("acc")
	f.Br(loop)
	f.SetBlock(loop)
	v := f.Load(g, 0)
	f.Store(g, 0, f.AddI(v, 1))
	f.MovTo(i, f.Call("inc", i))
	c := f.Cmp(ir.CmpLT, i, f.C(1_000_000))
	f.CondBr(c, loop, done)
	f.SetBlock(done)
	f.RetVoid()

	p, err := NewProgram(b.M)
	if err != nil {
		t.Fatal(err)
	}
	env := newPlainEnv(p)
	mn := p.M.Func("main")
	th := p.NewThread(0, "main", nil,
		env.al.StackAlloc(0, mn.AllocaWords*mem.WordSize), 7)
	for i := 0; i < 100; i++ { // warm: fault in the global's page
		p.Step(env, th)
	}
	if n := testing.AllocsPerRun(200, func() {
		for i := 0; i < 50; i++ {
			p.Step(env, th)
		}
	}); n != 0 {
		t.Errorf("steady-state Step allocates %.2f per 50 steps", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		for i := 0; i < 10; i++ {
			p.StepBlock(env, th, 64)
		}
	}); n != 0 {
		t.Errorf("steady-state StepBlock allocates %.2f per 10 blocks", n)
	}
	if th.Done {
		t.Fatal("loop finished during the pin — iteration bound too low")
	}
}

// Capture/Restore back every transactional retry; the double-buffered
// checkpoint and frame pools make the steady-state retry loop free.
func TestCaptureRestoreDoesNotAllocate(t *testing.T) {
	b := ir.NewBuilder("m")
	f := b.Function("main", 0)
	f.RetVoid()
	p, err := NewProgram(b.M)
	if err != nil {
		t.Fatal(err)
	}
	env := newPlainEnv(p)
	mn := p.M.Func("main")
	th := p.NewThread(0, "main", nil,
		env.al.StackAlloc(0, mn.AllocaWords*mem.WordSize), 7)
	th.Capture(0x1000)
	th.Restore()
	th.Capture(0x1000)
	th.Restore()
	if n := testing.AllocsPerRun(200, func() {
		th.Capture(0x1000)
		th.Restore()
	}); n != 0 {
		t.Errorf("capture/restore cycle allocates %.1f per retry", n)
	}
}
