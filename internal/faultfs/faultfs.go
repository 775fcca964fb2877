// Package faultfs puts an injectable filesystem seam under the pieces of
// verc3 that touch disk: the Spill visited backend's run files. Production
// code talks to the FS interface; the OS implementation is a thin
// passthrough to the os package, and the Injector wraps any FS to
// deterministically fail the Nth operation, truncate writes, or report
// ENOSPC — the substrate for the fault-injection test tables.
//
// The seam distinguishes transient faults (worth retrying with capped
// backoff — see Retry) from hard faults (sticky: the caller surfaces them
// and stops touching the file). An injected error wrapped in Transient
// unwraps to its cause, so errors.Is sees through the marker.
package faultfs

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"syscall"
	"time"
)

// File is the subset of *os.File the spill writer needs.
type File interface {
	io.Writer
	io.ReaderAt
	io.Closer
}

// FS abstracts the filesystem operations under the disk-backed stores.
// All paths are interpreted as the os package would.
type FS interface {
	Create(name string) (File, error)
	MkdirTemp(dir, pattern string) (string, error)
	Remove(name string) error
	RemoveAll(path string) error
}

// OS is the real filesystem. A nil FS everywhere defaults to it.
var OS FS = osFS{}

type osFS struct{}

func (osFS) Create(name string) (File, error)              { return os.Create(name) }
func (osFS) MkdirTemp(dir, pattern string) (string, error) { return os.MkdirTemp(dir, pattern) }
func (osFS) Remove(name string) error                      { return os.Remove(name) }
func (osFS) RemoveAll(path string) error                   { return os.RemoveAll(path) }

// Or returns f, or OS when f is nil — the one-liner every consumer uses
// to default its FS field.
func Or(f FS) FS {
	if f == nil {
		return OS
	}
	return f
}

// transientError marks an error as retryable. Unwrap exposes the cause so
// errors.Is(err, syscall.EAGAIN) and friends still work.
type transientError struct{ err error }

func (t *transientError) Error() string { return "transient: " + t.err.Error() }
func (t *transientError) Unwrap() error { return t.err }

// Transient wraps err as retryable for IsTransient/Retry.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err}
}

// IsTransient reports whether err is worth retrying: explicitly marked via
// Transient, or one of the OS conditions that clear on their own (EINTR,
// EAGAIN). ENOSPC and short writes are NOT transient — retrying a full
// disk busy-loops — so they stay sticky with the caller.
func IsTransient(err error) bool {
	var t *transientError
	if errors.As(err, &t) {
		return true
	}
	return errors.Is(err, syscall.EINTR) || errors.Is(err, syscall.EAGAIN)
}

// Retry runs op, retrying transient failures with capped exponential
// backoff (1ms, 2ms, 4ms, ... capped at 50ms; at most attempts tries).
// The first non-transient error — or the last transient one once the
// budget is exhausted — is returned as-is, so it stays inspectable.
// onRetry, when non-nil, observes every retried failure (telemetry hook).
func Retry(attempts int, onRetry func(attempt int, err error), op func() error) error {
	if attempts < 1 {
		attempts = 1
	}
	backoff := time.Millisecond
	var err error
	for i := 0; i < attempts; i++ {
		if err = op(); err == nil || !IsTransient(err) {
			return err
		}
		if i == attempts-1 {
			break
		}
		if onRetry != nil {
			onRetry(i+1, err)
		}
		time.Sleep(backoff)
		if backoff *= 2; backoff > 50*time.Millisecond {
			backoff = 50 * time.Millisecond
		}
	}
	return err
}

// DefaultRetries is the attempt budget the spill writer passes to Retry
// for idempotent operations.
const DefaultRetries = 4

// Op names the filesystem operation an Injector fault report refers to.
type Op string

const (
	OpCreate    Op = "create"
	OpMkdirTemp Op = "mkdirtemp"
	OpRemove    Op = "remove"
	OpRemoveAll Op = "removeall"
	OpWrite     Op = "write"
	OpReadAt    Op = "readat"
	OpClose     Op = "close"
)

// Fault describes one injected failure: after Skip fault-eligible
// operations succeed, the next one fails with Err. ShortWrite instead
// truncates that write to half its length (returning io.ErrShortWrite),
// exercising partial-write continuation paths. When Transient is set the
// injected error is marked retryable and the injector lets the operation
// succeed once Repeat additional attempts have failed — modelling a
// glitch that clears.
type Fault struct {
	Skip       int   // number of eligible ops to let through first
	Err        error // error to inject (defaults to ErrInjected)
	ShortWrite bool  // truncate the write instead of failing outright
	Transient  bool  // mark the injected error retryable
	Repeat     int   // extra times a transient fault re-fires (default 0: fails once)
	Only       Op    // restrict injection to this op kind ("" = any)
}

// ErrInjected is the default injected error.
var ErrInjected = errors.New("injected fault")

// ErrNoSpace is ENOSPC dressed as the full-disk error the tables inject.
var ErrNoSpace = fmt.Errorf("write: %w", syscall.ENOSPC)

// Injector wraps an FS and fails operations per a Fault plan. It is safe
// for concurrent use; the op counter is global across files, so "fail op
// N" is meaningful for deterministic single-threaded workloads (the test
// tables) and "fail the next op" for concurrent ones.
type Injector struct {
	Under FS

	mu    sync.Mutex
	fault *Fault
	ops   int // eligible operations observed
	fired int // times the current fault has fired
	log   []Op
}

// NewInjector wraps under (nil = OS).
func NewInjector(under FS) *Injector {
	return &Injector{Under: Or(under)}
}

// Plan arms the injector with a fault (nil disarms) and resets the
// counters.
func (in *Injector) Plan(f *Fault) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.fault = f
	in.ops = 0
	in.fired = 0
}

// Ops returns the number of fault-eligible operations observed since the
// last Plan. Run a clean workload first to size per-index fault tables.
func (in *Injector) Ops() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.ops
}

// Log returns the op kinds observed since the last Plan, in order.
func (in *Injector) Log() []Op {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]Op(nil), in.log...)
}

// check records one operation of kind op and returns the error to inject,
// or nil to let it through.
func (in *Injector) check(op Op) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.log = append(in.log, op)
	f := in.fault
	if f != nil && f.Only != "" && f.Only != op {
		return nil
	}
	n := in.ops
	in.ops++
	if f == nil || n < f.Skip {
		return nil
	}
	if f.Transient && in.fired > f.Repeat {
		return nil // glitch cleared
	}
	in.fired++
	err := f.Err
	if err == nil {
		err = ErrInjected
	}
	if f.Transient {
		err = Transient(err)
	}
	return err
}

// shortWrite reports whether the current op should be truncated instead
// of failed; only meaningful right after check returned non-nil.
func (in *Injector) shortWriteArmed() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fault != nil && in.fault.ShortWrite
}

func (in *Injector) Create(name string) (File, error) {
	if err := in.check(OpCreate); err != nil {
		return nil, err
	}
	f, err := in.Under.Create(name)
	if err != nil {
		return nil, err
	}
	return &injFile{in: in, f: f}, nil
}

func (in *Injector) MkdirTemp(dir, pattern string) (string, error) {
	if err := in.check(OpMkdirTemp); err != nil {
		return "", err
	}
	return in.Under.MkdirTemp(dir, pattern)
}

func (in *Injector) Remove(name string) error {
	if err := in.check(OpRemove); err != nil {
		return err
	}
	return in.Under.Remove(name)
}

func (in *Injector) RemoveAll(path string) error {
	if err := in.check(OpRemoveAll); err != nil {
		return err
	}
	return in.Under.RemoveAll(path)
}

type injFile struct {
	in *Injector
	f  File
}

func (jf *injFile) Write(p []byte) (int, error) {
	if err := jf.in.check(OpWrite); err != nil {
		if jf.in.shortWriteArmed() {
			if len(p) <= 1 {
				// A one-byte write cannot be short; let it through so
				// truncate-every-write plans still make progress.
				return jf.f.Write(p)
			}
			// Deliver half the bytes, then report the short write the way
			// a real truncated write(2) surfaces through io helpers.
			n, werr := jf.f.Write(p[:len(p)/2])
			if werr != nil {
				return n, werr
			}
			return n, io.ErrShortWrite
		}
		return 0, err
	}
	return jf.f.Write(p)
}

func (jf *injFile) ReadAt(p []byte, off int64) (int, error) {
	if err := jf.in.check(OpReadAt); err != nil {
		return 0, err
	}
	return jf.f.ReadAt(p, off)
}

func (jf *injFile) Close() error {
	if err := jf.in.check(OpClose); err != nil {
		jf.f.Close() // release the descriptor regardless
		return err
	}
	return jf.f.Close()
}

// WriteFull writes all of p through f, continuing after short writes the
// way io.Writer contracts normally guarantee but injected faults violate
// on purpose. Transient errors are retried via Retry; anything else is
// returned with the byte offset it struck at.
func WriteFull(f File, p []byte, onRetry func(attempt int, err error)) error {
	for len(p) > 0 {
		var n int
		err := Retry(DefaultRetries, onRetry, func() error {
			var werr error
			n, werr = f.Write(p)
			if n > 0 && werr == io.ErrShortWrite {
				return nil // progress made; loop continues with the rest
			}
			return werr
		})
		if err != nil {
			return err
		}
		if n <= 0 {
			return io.ErrShortWrite
		}
		p = p[n:]
	}
	return nil
}
