package service

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolExecutesJobs(t *testing.T) {
	p := NewPool(4, 8)
	defer p.Close()
	var ran, accepted atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := p.Submit(context.Background(), func(context.Context) (any, error) {
				ran.Add(1)
				return i * 2, nil
			})
			if err != nil {
				if errors.Is(err, ErrQueueFull) {
					return // acceptable under burst; retried jobs are not the point here
				}
				t.Errorf("submit: %v", err)
				return
			}
			accepted.Add(1)
			if v.(int) != i*2 {
				t.Errorf("job %d returned %v", i, v)
			}
		}(i)
	}
	wg.Wait()
	if ran.Load() == 0 {
		t.Fatal("no jobs executed")
	}
	if ran.Load() != accepted.Load() {
		t.Errorf("%d jobs ran, %d Submits returned a result", ran.Load(), accepted.Load())
	}
}

func TestPoolQueueFullRejects(t *testing.T) {
	p := NewPool(1, 1)
	defer p.Close()
	block := make(chan struct{})
	release := func() { close(block) }

	// Occupy the single worker, then the single queue slot.
	results := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := p.Submit(context.Background(), func(context.Context) (any, error) {
				<-block
				return nil, nil
			})
			results <- err
		}()
	}
	// Wait until worker busy and queue occupied.
	deadline := time.After(2 * time.Second)
	for p.InFlight() != 1 || p.QueueDepth() != 1 {
		select {
		case <-deadline:
			release()
			t.Fatalf("pool never saturated: inFlight=%d queueDepth=%d", p.InFlight(), p.QueueDepth())
		case <-time.After(time.Millisecond):
		}
	}

	if _, err := p.Submit(context.Background(), func(context.Context) (any, error) { return nil, nil }); !errors.Is(err, ErrQueueFull) {
		release()
		t.Fatalf("saturated Submit returned %v, want ErrQueueFull", err)
	}

	release()
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Errorf("blocked job %d: %v", i, err)
		}
	}
}

func TestPoolQueuedJobExpires(t *testing.T) {
	p := NewPool(1, 4)
	defer p.Close()
	block := make(chan struct{})

	// Occupy the worker.
	go func() {
		_, _ = p.Submit(context.Background(), func(context.Context) (any, error) {
			<-block
			return nil, nil
		})
	}()
	for p.InFlight() != 1 {
		time.Sleep(time.Millisecond)
	}

	// Queue a job with an already-short deadline; it must come back with
	// the context error without ever running.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	ran := false
	_, err := p.Submit(ctx, func(context.Context) (any, error) {
		ran = true
		return nil, nil
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired Submit returned %v, want DeadlineExceeded", err)
	}
	close(block)
	// The single worker takes jobs in order: once a later job has run, the
	// expired one has been taken and skipped.
	if _, err := p.Submit(context.Background(), func(context.Context) (any, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Error("expired job still executed")
	}
}

func TestPoolCloseDrainsAndRejects(t *testing.T) {
	p := NewPool(2, 8)
	var ran atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = p.Submit(context.Background(), func(context.Context) (any, error) {
				time.Sleep(5 * time.Millisecond)
				ran.Add(1)
				return nil, nil
			})
		}()
	}
	wg.Wait() // all submits answered (accepted jobs completed or rejected)
	p.Close()
	if _, err := p.Submit(context.Background(), func(context.Context) (any, error) { return nil, nil }); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("Submit after Close returned %v, want ErrPoolClosed", err)
	}
	// Close is idempotent.
	p.Close()
}

func TestPoolConcurrentSubmitAndClose(t *testing.T) {
	// Exercised under -race: heavy Submit traffic racing one Close must
	// neither panic (send on closed channel) nor deadlock.
	p := NewPool(4, 16)
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = p.Submit(context.Background(), func(context.Context) (any, error) {
				return nil, nil
			})
		}()
	}
	time.Sleep(time.Millisecond)
	p.Close()
	wg.Wait()
}
