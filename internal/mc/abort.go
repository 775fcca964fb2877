// Cancellation and panic containment for the exploration kernel and the
// liveness phase.
//
// A run can be cut short in two ways. Cooperative cancellation: the
// context threaded through CheckCtx is polled at the start of every BFS
// level (of every range of one, with several workers) and every
// cancelPollStride expansions per worker, so a -timeout deadline or a
// SIGINT-driven cancel stops the search within a bounded amount of work.
// Panic containment: a panic out of model code (Transitions, Fire, an
// invariant, Key) is recovered on the goroutine it happened on instead of
// crashing the process. Either way the run returns normally — error-free —
// with Verdict == Aborted and a non-nil Result.Abort describing why,
// carrying whatever partial statistics the exploration accumulated (states,
// transitions, depth, the full Space profile). Reachability goals are deliberately NOT judged on an aborted
// run: "goal never witnessed" is only meaningful over the complete space,
// so an abort can never manufacture a spurious goal failure.
package mc

import (
	"context"
	"fmt"
	"runtime/debug"

	"verc3/internal/ts"
)

// AbortInfo describes why a run returned Verdict == Aborted.
type AbortInfo struct {
	// Cause is the cancel cause (context.Cause: the -timeout deadline, the
	// signal handler's cause, or plain context.Canceled) or, for panics,
	// the recovered value wrapped with its provenance.
	Cause error
	// Panic reports that the abort came from a recovered model-code panic
	// rather than cooperative cancellation.
	Panic bool
	// StateKey is the rendered key of the state whose expansion panicked
	// ("" for cancellation aborts, or when rendering the key itself
	// panicked).
	StateKey string
	// Stack is the panicking goroutine's stack trace (panic aborts only).
	Stack string
}

// cancelPollStride is the cooperative cancellation cadence: each worker
// checks its context once per this many expansions, in addition to the
// unconditional check at the start of every BFS level. At typical expansion
// rates this bounds cancellation latency to well under a millisecond
// while keeping the poll amortized to a fraction of a branch per state.
const cancelPollStride = 1024

// cancelAbort captures a cancelled context as an AbortInfo.
func cancelAbort(ctx context.Context) *AbortInfo {
	return &AbortInfo{Cause: context.Cause(ctx)}
}

// panicAbort converts a recovered panic value into an AbortInfo, rendering
// the offending state's key defensively (the state may be the very thing
// that is broken) and capturing the panicking goroutine's stack. It must
// be called from the deferred recover itself, while the panicking frames
// are still on the stack.
func panicAbort(p any, s ts.State) *AbortInfo {
	return &AbortInfo{
		Cause:    fmt.Errorf("mc: model panic: %v", p),
		Panic:    true,
		StateKey: safeKey(s),
		Stack:    string(debug.Stack()),
	}
}

// safeKey renders s.Key() but survives a nil state and a Key() that
// panics — the state being rendered is the one whose expansion just blew
// up, so nothing about it can be trusted.
func safeKey(s ts.State) (key string) {
	if s == nil {
		return ""
	}
	defer func() {
		if recover() != nil {
			key = "<state key unavailable: Key() panicked>"
		}
	}()
	return s.Key()
}
