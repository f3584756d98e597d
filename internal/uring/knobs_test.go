package uring

import (
	"bytes"
	"encoding/binary"
	"syscall"
	"testing"
)

func TestCapsString(t *testing.T) {
	cases := []struct {
		caps Caps
		want string
	}{
		{Caps{}, "unavailable"},
		{Caps{Ring: true}, "ring"},
		{Caps{Ring: true, ReadFixed: true}, "ring+read_fixed"},
		{Caps{Ring: true, ReadFixed: true, RegisteredFiles: true, SQPoll: true},
			"ring+read_fixed+reg_files+sqpoll"},
	}
	for _, c := range cases {
		if got := c.caps.String(); got != c.want {
			t.Fatalf("Caps%+v.String() = %q, want %q", c.caps, got, c.want)
		}
	}
}

// TestProbeCapsConsistent: sub-feature capabilities imply the base ring —
// a probe can never report read_fixed without a working ring under it.
func TestProbeCapsConsistent(t *testing.T) {
	caps := Probe()
	if (caps.ReadFixed || caps.RegisteredFiles || caps.SQPoll) && !caps.Ring {
		t.Fatalf("Probe() = %s: sub-feature granted without base ring", caps)
	}
	t.Logf("caps: %s", caps)
}

// drainOne submits whatever is staged and waits for exactly one CQE.
func drainOne(t *testing.T, r Ring) CQE {
	t.Helper()
	if _, err := r.Submit(); err != nil {
		t.Fatal(err)
	}
	cqes, err := r.Wait(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(cqes) != 1 {
		t.Fatalf("Wait(1) returned %d CQEs, want 1", len(cqes))
	}
	return cqes[0]
}

// TestFixedReadEmulation drives the pool and sim backends' fixed-buffer
// emulation through the full contract: a valid fixed read returns the
// same bytes as a plain read, an unregistered index completes with
// -EINVAL, and a destination outside the arena completes with -EFAULT —
// structured CQEs after Submit, never a panic or a silent success.
func TestFixedReadEmulation(t *testing.T) {
	for _, be := range []Backend{BackendPool, BackendSim} {
		t.Run(string(be), func(t *testing.T) {
			f := testFile(t, 64)
			arena := make([]byte, 4096)
			r, err := NewWith(be, f, Options{Entries: 8, FixedBuffers: [][]byte{arena}})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()

			// Valid: destination inside the registered arena.
			dst := arena[100:108]
			if !r.PrepReadFixed(1, 16, dst, 0) {
				t.Fatal("valid fixed read refused while idle")
			}
			c := drainOne(t, r)
			if c.ID != 1 || c.Res != 8 {
				t.Fatalf("valid fixed read: CQE %+v, want ID 1 Res 8", c)
			}
			if got := binary.LittleEndian.Uint32(dst); got != 4 {
				t.Fatalf("fixed read content = %d, want 4", got)
			}

			// Unregistered index: -EINVAL, exactly-once, no panic.
			if !r.PrepReadFixed(2, 0, dst, 3) {
				t.Fatal("bad-index fixed read refused (must complete with -EINVAL instead)")
			}
			if c := drainOne(t, r); c.ID != 2 || c.Res != -int32(syscall.EINVAL) {
				t.Fatalf("bad-index CQE %+v, want ID 2 Res %d", c, -int32(syscall.EINVAL))
			}

			// Destination outside the arena: -EFAULT.
			heap := make([]byte, 8)
			if !r.PrepReadFixed(3, 0, heap, 0) {
				t.Fatal("out-of-arena fixed read refused")
			}
			if c := drainOne(t, r); c.ID != 3 || c.Res != -int32(syscall.EFAULT) {
				t.Fatalf("out-of-arena CQE %+v, want ID 3 Res %d", c, -int32(syscall.EFAULT))
			}
		})
	}
}

// TestFixedReadNoArenas: a ring constructed without FixedBuffers must
// complete every PrepReadFixed with -EINVAL — the structured
// "unsupported" contract for backends asked to do fixed reads they were
// never configured for.
func TestFixedReadNoArenas(t *testing.T) {
	for _, be := range []Backend{BackendPool, BackendSim} {
		t.Run(string(be), func(t *testing.T) {
			f := testFile(t, 16)
			r, err := NewWith(be, f, Options{Entries: 8})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			buf := make([]byte, 8)
			if !r.PrepReadFixed(7, 0, buf, 0) {
				t.Fatal("fixed read refused while idle")
			}
			if c := drainOne(t, r); c.ID != 7 || c.Res != -int32(syscall.EINVAL) {
				t.Fatalf("CQE %+v, want ID 7 Res %d", c, -int32(syscall.EINVAL))
			}
		})
	}
}

// TestFixedReadReal exercises IORING_OP_READ_FIXED against the kernel:
// a read through a registered buffer returns the same bytes as a plain
// read, and a reference to an unregistered buffer index completes with
// a negated errno CQE (the kernel's own validation), not an enter
// failure.
func TestFixedReadReal(t *testing.T) {
	if !Probe().ReadFixed {
		t.Skip("fixed buffers not grantable in this environment")
	}
	f := testFile(t, 64)
	arena := make([]byte, 4096)
	r, err := NewWith(BackendIOURing, f, Options{Entries: 8, FixedBuffers: [][]byte{arena}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	dst := arena[256:272]
	if !r.PrepReadFixed(1, 8, dst, 0) {
		t.Fatal("fixed read refused while idle")
	}
	c := drainOne(t, r)
	if c.ID != 1 || c.Res != 16 {
		t.Fatalf("fixed read CQE %+v, want ID 1 Res 16", c)
	}
	plain := make([]byte, 16)
	if !r.PrepRead(2, 8, plain) {
		t.Fatal("plain read refused")
	}
	if c := drainOne(t, r); c.Res != 16 {
		t.Fatalf("plain read CQE %+v", c)
	}
	if !bytes.Equal(dst, plain) {
		t.Fatalf("fixed read bytes differ from plain read:\n%x\n%x", dst, plain)
	}

	// Unregistered buffer index: the kernel posts an error CQE.
	if !r.PrepReadFixed(3, 0, dst, 9) {
		t.Fatal("bad-index fixed read refused")
	}
	if c := drainOne(t, r); c.ID != 3 || c.Res >= 0 {
		t.Fatalf("bad-index CQE %+v, want negative Res", c)
	}
}

// TestRegisteredFilesAndSQPollReal: reads through IOSQE_FIXED_FILE and
// through an SQPOLL ring must return the same bytes as the plain path.
func TestRegisteredFilesAndSQPollReal(t *testing.T) {
	caps := Probe()
	run := func(t *testing.T, o Options) {
		f := testFile(t, 64)
		r, err := NewWith(BackendIOURing, f, o)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		buf := make([]byte, 12)
		if !r.PrepRead(1, 4, buf) {
			t.Fatal("read refused while idle")
		}
		if c := drainOne(t, r); c.Res != 12 {
			t.Fatalf("CQE %+v, want Res 12", c)
		}
		for i := 0; i < 3; i++ {
			if got := binary.LittleEndian.Uint32(buf[i*4:]); got != uint32(i+1) {
				t.Fatalf("entry %d = %d, want %d", i, got, i+1)
			}
		}
	}
	t.Run("reg_files", func(t *testing.T) {
		if !caps.RegisteredFiles {
			t.Skip("registered files not grantable in this environment")
		}
		run(t, Options{Entries: 8, RegisterFile: true})
	})
	t.Run("sqpoll", func(t *testing.T) {
		if !caps.SQPoll {
			t.Skip("SQPOLL not grantable in this environment")
		}
		run(t, Options{Entries: 8, SQPoll: true, SQPollIdleMS: 10})
	})
	t.Run("all", func(t *testing.T) {
		if !caps.ReadFixed || !caps.RegisteredFiles || !caps.SQPoll {
			t.Skip("full knob set not grantable in this environment")
		}
		arena := make([]byte, 4096)
		run(t, Options{Entries: 8, FixedBuffers: [][]byte{arena}, RegisterFile: true, SQPoll: true, SQPollIdleMS: 10})
	})
}

// TestNewWithFailsFastOnUngrantedKnob: the real backend never silently
// downgrades — asking for a feature the probe says the kernel refuses
// must fail construction (callers gate on Probe() and decide the
// fallback themselves).
func TestNewWithFailsFastOnUngrantedKnob(t *testing.T) {
	caps := Probe()
	if !caps.Ring {
		t.Skip("io_uring unavailable")
	}
	f := testFile(t, 16)
	if !caps.ReadFixed {
		arena := make([]byte, 4096)
		if r, err := NewWith(BackendIOURing, f, Options{Entries: 8, FixedBuffers: [][]byte{arena}}); err == nil {
			r.Close()
			t.Fatal("fixed buffers constructed despite probe refusal")
		}
	}
	if !caps.SQPoll {
		if r, err := NewWith(BackendIOURing, f, Options{Entries: 8, SQPoll: true}); err == nil {
			r.Close()
			t.Fatal("SQPOLL ring constructed despite probe refusal")
		}
	}
	if caps.ReadFixed && caps.SQPoll {
		t.Skip("every knob grantable here; refusal path not reachable")
	}
}

// TestSyscallsReporter: pool and sim report one submission-side syscall
// per pread (their honest kernel-crossing cost) and zero blocking waits;
// the real ring reports at least one enter per submit-with-work and per
// blocking wait.
func TestSyscallsReporter(t *testing.T) {
	backends := []Backend{BackendPool, BackendSim}
	if Probe().Ring {
		backends = append(backends, BackendIOURing)
	}
	for _, be := range backends {
		t.Run(string(be), func(t *testing.T) {
			f := testFile(t, 64)
			r, err := NewWith(be, f, Options{Entries: 8})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			sr, ok := r.(SyscallReporter)
			if !ok {
				t.Fatalf("%T does not implement SyscallReporter", r)
			}
			const n = 6
			done := 0
			for i := 0; i < n; i++ {
				buf := make([]byte, 8)
				if !r.PrepRead(uint64(i), int64(i)*8, buf) {
					t.Fatal("read refused while idle")
				}
				if _, err := r.Submit(); err != nil {
					t.Fatal(err)
				}
				cqes, err := r.Wait(1)
				if err != nil {
					t.Fatal(err)
				}
				done += len(cqes)
			}
			for done < n {
				cqes, err := r.Wait(1)
				if err != nil {
					t.Fatal(err)
				}
				done += len(cqes)
			}
			sys := sr.Syscalls()
			switch be {
			case BackendPool, BackendSim:
				if sys.Submits != n {
					t.Fatalf("Submits = %d, want %d (one pread per request)", sys.Submits, n)
				}
				if sys.Waits != 0 {
					t.Fatalf("Waits = %d, want 0 (user-space completion)", sys.Waits)
				}
			default:
				if sys.Submits == 0 {
					t.Fatalf("real ring reported zero submit syscalls: %+v", sys)
				}
			}
		})
	}
}

// TestFaultBadBufIndex: the fault ring's buffer-index corruption rewrites
// fixed reads to an unregistered index, and the wrapped backend must
// answer with -EINVAL CQEs while the stats count every injection.
func TestFaultBadBufIndex(t *testing.T) {
	f := testFile(t, 64)
	arena := make([]byte, 4096)
	inner, err := NewWith(BackendSim, f, Options{Entries: 8, FixedBuffers: [][]byte{arena}})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewFault(inner, FaultPlan{Seed: 11, BadBufIndexRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if !r.PrepReadFixed(1, 0, arena[:8], 0) {
		t.Fatal("fixed read refused while idle")
	}
	if c := drainOne(t, r); c.ID != 1 || c.Res != -int32(syscall.EINVAL) {
		t.Fatalf("CQE %+v, want ID 1 Res %d", c, -int32(syscall.EINVAL))
	}
	fs, ok := Faults(r)
	if !ok || fs.BadBufIndex != 1 {
		t.Fatalf("fault stats %+v (ok=%v), want BadBufIndex 1", fs, ok)
	}
	// Plain reads are untouched by this plan.
	buf := make([]byte, 8)
	if !r.PrepRead(2, 0, buf) {
		t.Fatal("plain read refused")
	}
	if c := drainOne(t, r); c.Res != 8 {
		t.Fatalf("plain read CQE %+v, want Res 8", c)
	}
}

// TestSQPollRefillAfterDrain: under SQPOLL the kernel thread can post a
// batch's completions before it commits the SQ head, so a consumer that
// has harvested every completion may still see a full SQ. A ring that
// is idle (nothing staged or in flight) must never refuse a read: it
// waits for the head instead. Each round fills the whole SQ with
// page-sized reads, drains it, and refills it at once — the window in
// which the head lags; a 1 ms idle timeout adds thread wake-ups.
func TestSQPollRefillAfterDrain(t *testing.T) {
	if !Probe().SQPoll {
		t.Skip("SQPOLL not grantable in this environment")
	}
	const pages = 64
	f := testFile(t, pages*1024)
	for _, entries := range []int{8, 32} {
		r, err := NewWith(BackendIOURing, f, Options{Entries: entries, SQPoll: true, SQPollIdleMS: 1})
		if err != nil {
			t.Fatal(err)
		}
		bufs := make([][]byte, entries)
		for i := range bufs {
			bufs[i] = make([]byte, 4096)
		}
		for round := 0; round < 10000; round++ {
			for i := 0; i < entries; i++ {
				if !r.PrepRead(uint64(i), int64(4096*((round*7+i*13)%pages)), bufs[i]) {
					r.Close()
					t.Fatalf("entries=%d round %d: read %d refused with nothing in flight", entries, round, i)
				}
			}
			if _, err := r.Submit(); err != nil {
				t.Fatal(err)
			}
			for got := 0; got < entries; {
				cqes, err := r.Wait(1)
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range cqes {
					if c.Res != 4096 {
						t.Fatalf("entries=%d round %d: CQE %+v, want Res 4096", entries, round, c)
					}
				}
				got += len(cqes)
			}
		}
		r.Close()
	}
}
