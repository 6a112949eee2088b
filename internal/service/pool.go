package service

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Pool errors.
var (
	// ErrQueueFull is returned by Submit when the bounded job queue has no
	// room; HTTP handlers translate it into 429 + Retry-After so overload
	// sheds gracefully instead of accumulating unbounded goroutines.
	ErrQueueFull = errors.New("service: job queue full")
	// ErrPoolClosed is returned by Submit after Close has begun draining.
	ErrPoolClosed = errors.New("service: pool closed")
)

// PanicError is returned by Submit when the job function panicked. The
// worker recovers the panic so one bad request cannot kill a pool
// goroutine; handlers map it to HTTP 500 and count it in
// wcds_service_panics_total.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("service: job panicked: %v", e.Value)
}

// Pool is a bounded worker pool: a fixed set of goroutines consuming a
// bounded job queue. Both bounds are the service's overload defence — a
// burst of requests beyond workers+queue is rejected immediately with
// ErrQueueFull rather than admitted to fight over memory and CPU.
type Pool struct {
	jobs chan *poolJob
	wg   sync.WaitGroup

	mu     sync.RWMutex // guards closed vs. the Submit send
	closed bool

	inFlight atomic.Int64 // jobs currently executing
}

type poolJob struct {
	ctx  context.Context
	fn   func(context.Context) (any, error)
	done chan poolResult // buffered; worker never blocks on delivery
}

type poolResult struct {
	value any
	err   error
}

// NewPool starts workers goroutines consuming a queue of queueSize pending
// jobs. workers and queueSize are clamped to at least 1 and 0.
func NewPool(workers, queueSize int) *Pool {
	if workers < 1 {
		workers = 1
	}
	if queueSize < 0 {
		queueSize = 0
	}
	p := &Pool{jobs: make(chan *poolJob, queueSize)}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for job := range p.jobs {
		// A job can sit in the queue past its deadline; skip the work but
		// still answer, so a Submit caller racing between the queue and its
		// context always gets a definitive result.
		if err := job.ctx.Err(); err != nil {
			job.done <- poolResult{err: err}
			continue
		}
		p.inFlight.Add(1)
		v, err := runJob(job)
		p.inFlight.Add(-1)
		job.done <- poolResult{value: v, err: err}
	}
}

// runJob executes one job, converting a panic into a *PanicError so the
// worker goroutine survives and the Submit caller still gets an answer.
func runJob(job *poolJob) (v any, err error) {
	defer func() {
		if r := recover(); r != nil {
			v, err = nil, &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return job.fn(job.ctx)
}

// Submit enqueues fn and blocks until it completes or ctx ends. It returns
// ErrQueueFull without blocking when the queue is at capacity, and
// ErrPoolClosed after Close. When ctx ends while the job is still queued,
// Submit returns ctx's error and the worker later discards the job.
func (p *Pool) Submit(ctx context.Context, fn func(context.Context) (any, error)) (any, error) {
	job := &poolJob{ctx: ctx, fn: fn, done: make(chan poolResult, 1)}

	p.mu.RLock()
	if p.closed {
		p.mu.RUnlock()
		return nil, ErrPoolClosed
	}
	select {
	case p.jobs <- job:
		p.mu.RUnlock()
	default:
		p.mu.RUnlock()
		return nil, ErrQueueFull
	}

	select {
	case r := <-job.done:
		return r.value, r.err
	case <-ctx.Done():
		// The worker will observe the dead context (or finish the job and
		// drop the result into the buffered channel); either way nothing
		// leaks and the caller unblocks now.
		return nil, ctx.Err()
	}
}

// Close stops accepting jobs and drains the queue: every already-accepted
// job still runs (or is skipped if its context expired) before Close
// returns. Safe to call once; subsequent Submits return ErrPoolClosed.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		return
	}
	p.closed = true
	close(p.jobs)
	p.mu.Unlock()
	p.wg.Wait()
}

// QueueDepth returns the number of jobs waiting in the queue right now.
func (p *Pool) QueueDepth() int { return len(p.jobs) }

// InFlight returns the number of jobs executing right now.
func (p *Pool) InFlight() int64 { return p.inFlight.Load() }
