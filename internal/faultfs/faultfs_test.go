package faultfs

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

func TestOSPassthrough(t *testing.T) {
	dir := t.TempDir()
	name := filepath.Join(dir, "x.bin")
	f, err := OS.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "hello" {
		t.Fatalf("read %q", buf)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := OS.Remove(name); err != nil {
		t.Fatal(err)
	}
	if Or(nil) != OS {
		t.Fatal("Or(nil) != OS")
	}
}

func TestInjectorFailsNthOp(t *testing.T) {
	dir := t.TempDir()
	// Workload: create, write, write, readat, close = 5 eligible ops.
	workload := func(in *Injector) error {
		name := filepath.Join(dir, "w.bin")
		f, err := in.Create(name)
		if err != nil {
			return err
		}
		defer os.Remove(name)
		for i := 0; i < 2; i++ {
			if _, err := f.Write([]byte("abcdefgh")); err != nil {
				f.Close()
				return err
			}
		}
		if _, err := f.ReadAt(make([]byte, 8), 0); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}

	in := NewInjector(nil)
	in.Plan(nil)
	if err := workload(in); err != nil {
		t.Fatalf("clean run: %v", err)
	}
	total := in.Ops()
	if total != 5 {
		t.Fatalf("expected 5 eligible ops, counted %d (%v)", total, in.Log())
	}
	// Every op index must surface the injected error to the caller.
	for i := 0; i < total; i++ {
		in.Plan(&Fault{Skip: i})
		err := workload(in)
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("op %d: expected injected error, got %v", i, err)
		}
	}
}

func TestInjectorENOSPC(t *testing.T) {
	dir := t.TempDir()
	in := NewInjector(nil)
	in.Plan(&Fault{Skip: 1, Err: ErrNoSpace, Only: OpWrite})
	f, err := in.Create(filepath.Join(dir, "e.bin"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	_, err = f.Write([]byte("boom"))
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("expected ENOSPC, got %v", err)
	}
	if IsTransient(err) {
		t.Fatal("ENOSPC must not be transient")
	}
}

func TestInjectorShortWrite(t *testing.T) {
	dir := t.TempDir()
	in := NewInjector(nil)
	in.Plan(&Fault{Only: OpWrite, ShortWrite: true})
	f, err := in.Create(filepath.Join(dir, "s.bin"))
	if err != nil {
		t.Fatal(err)
	}
	n, err := f.Write([]byte("12345678"))
	if err != io.ErrShortWrite {
		t.Fatalf("expected ErrShortWrite, got n=%d err=%v", n, err)
	}
	if n != 4 {
		t.Fatalf("short write delivered %d bytes, want 4", n)
	}
	f.Close()
}

func TestWriteFullContinuesShortWrites(t *testing.T) {
	dir := t.TempDir()
	in := NewInjector(nil)
	// Truncate every write: WriteFull must still land every byte by
	// resuming after each short write.
	in.Plan(&Fault{Only: OpWrite, ShortWrite: true, Transient: true, Repeat: 1 << 30})
	name := filepath.Join(dir, "full.bin")
	f, err := in.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("the quick brown fox jumps over the lazy dog")
	if err := WriteFull(f, payload, nil); err != nil {
		t.Fatalf("WriteFull: %v", err)
	}
	in.Plan(nil)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload) {
		t.Fatalf("WriteFull wrote %q, want %q", got, payload)
	}
}

func TestRetryTransient(t *testing.T) {
	calls, retries := 0, 0
	err := Retry(4, func(attempt int, err error) { retries++ }, func() error {
		calls++
		if calls < 3 {
			return Transient(errors.New("glitch"))
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Retry: %v", err)
	}
	if calls != 3 || retries != 2 {
		t.Fatalf("calls=%d retries=%d, want 3/2", calls, retries)
	}

	// Hard errors return immediately, unretried.
	calls = 0
	hard := errors.New("hard")
	if err := Retry(4, nil, func() error { calls++; return hard }); err != hard {
		t.Fatalf("hard error not surfaced: %v", err)
	}
	if calls != 1 {
		t.Fatalf("hard error retried %d times", calls)
	}

	// A transient error that never clears surfaces after the budget.
	calls = 0
	err = Retry(3, nil, func() error { calls++; return Transient(hard) })
	if !errors.Is(err, hard) || calls != 3 {
		t.Fatalf("exhausted retry: err=%v calls=%d", err, calls)
	}
}

func TestInjectorTransientClears(t *testing.T) {
	dir := t.TempDir()
	in := NewInjector(nil)
	in.Plan(&Fault{Only: OpWrite, Transient: true, Repeat: 1}) // fails twice, then clears
	f, err := in.Create(filepath.Join(dir, "t.bin"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var retried int
	err = Retry(DefaultRetries, func(int, error) { retried++ }, func() error {
		_, werr := f.Write([]byte("x"))
		return werr
	})
	if err != nil {
		t.Fatalf("transient fault should clear under retry: %v", err)
	}
	if retried != 2 {
		t.Fatalf("retried %d times, want 2", retried)
	}
}

func TestIsTransientOSConditions(t *testing.T) {
	if !IsTransient(syscall.EINTR) || !IsTransient(syscall.EAGAIN) {
		t.Fatal("EINTR/EAGAIN must be transient")
	}
	if IsTransient(errors.New("other")) {
		t.Fatal("arbitrary errors must not be transient")
	}
	if IsTransient(nil) {
		t.Fatal("nil must not be transient")
	}
}
