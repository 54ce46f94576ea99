package server

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
)

// Pool errors.
var (
	// ErrPoolClosed is returned by TryDo once Close has been called.
	ErrPoolClosed = errors.New("server: worker pool closed")
	// ErrQueueFull is returned by TryDo when every worker is busy and the
	// queue is at capacity — the fast-fail admission verdict.
	ErrQueueFull = errors.New("server: request queue full")
)

// PanicError is returned by TryDo when fn panicked. The worker recovered
// and keeps serving: a bug reached through one request costs that
// request, not the process. Stack is for the server's log, not the client.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("server: request panicked: %v", e.Value) }

// task is one unit of submitted work. The worker sends on done after fn
// returns (nil) or panics (a *PanicError), establishing the happens-before
// edge that lets the submitter read anything fn wrote. done has room for
// that one send, so a worker never waits on a submitter that gave up.
type task struct {
	ctx  context.Context
	fn   func()
	done chan error
}

// Pool is a bounded worker pool: a fixed set of goroutines draining a
// bounded queue. It is the server's admission controller — at most
// `workers` query evaluations run at once, at most `queue` more wait, and
// beyond that submitters are turned away at once (ErrQueueFull). That
// turns overload into prompt 503s instead of a goroutine pile-up, and
// caps the memory the evaluation engine can pin concurrently.
type Pool struct {
	tasks  chan task
	closed chan struct{}
	once   sync.Once
	wg     sync.WaitGroup
}

// NewPool starts `workers` worker goroutines with a queue of `queue`
// waiting tasks (both forced to at least 1 / 0).
func NewPool(workers, queue int) *Pool {
	if workers < 1 {
		workers = 1
	}
	if queue < 0 {
		queue = 0
	}
	p := &Pool{
		tasks:  make(chan task, queue),
		closed: make(chan struct{}),
	}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		select {
		case <-p.closed:
			return
		case t := <-p.tasks:
			t.done <- t.run()
		}
	}
}

// run calls fn, turning a panic into a *PanicError. Tasks whose submitter
// already gave up are skipped; their response has been written.
func (t task) run() (err error) {
	if t.ctx.Err() != nil {
		return nil
	}
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	t.fn()
	return nil
}

// TryDo runs fn on a pool worker and returns once it has completed. If
// the task cannot be queued RIGHT NOW — every worker busy, queue full — it
// returns ErrQueueFull immediately instead of blocking until the deadline:
// under overload the caller turns that into a prompt 503 with Retry-After
// rather than holding the connection open to time out. Once admitted, it
// returns ctx.Err() if fn did not finish before the context was done (the
// worker may still run fn to completion in the background; the caller
// must not read fn's results after a non-nil return), a *PanicError if fn
// panicked, and ErrPoolClosed during shutdown.
func (p *Pool) TryDo(ctx context.Context, fn func()) error {
	t := task{ctx: ctx, fn: fn, done: make(chan error, 1)}
	select {
	case p.tasks <- t:
	case <-p.closed:
		return ErrPoolClosed
	default:
		return ErrQueueFull
	}
	select {
	case err := <-t.done:
		return err
	case <-ctx.Done():
		return ctx.Err()
	case <-p.closed:
		return ErrPoolClosed
	}
}

// Depth reports how many admitted tasks are waiting for a worker, and
// Capacity the queue bound — the tddserve_queue_depth/_capacity gauges.
func (p *Pool) Depth() int    { return len(p.tasks) }
func (p *Pool) Capacity() int { return cap(p.tasks) }

// Close stops the workers and waits for them to exit. In-flight tasks
// finish; queued tasks are abandoned (their submitters get ErrPoolClosed).
// The server shuts its HTTP listener down first, so by the time Close
// runs no request handlers remain.
func (p *Pool) Close() {
	p.once.Do(func() { close(p.closed) })
	p.wg.Wait()
}
