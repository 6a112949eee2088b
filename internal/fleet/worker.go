package fleet

import (
	"fmt"
	"net"
	"net/http"

	"wcdsnet/internal/service"
)

// LocalWorker is an in-process fleet worker: a full service.Service behind
// a real TCP loopback listener. cmd/fleet -spawn, cmd/bench's fleet phase
// and the fleet tests use these so every fleet run exercises the complete
// wire path — HTTP, JSON, NDJSON streaming — without managing OS
// processes, and tests can kill a worker abruptly mid-sweep.
type LocalWorker struct {
	svc  *service.Service
	srv  *http.Server
	ln   net.Listener
	addr string
	done chan struct{}
}

// SpawnLocal boots n workers on ephemeral loopback ports.
func SpawnLocal(n int, opts service.Options) ([]*LocalWorker, error) {
	workers := make([]*LocalWorker, 0, n)
	for i := 0; i < n; i++ {
		w, err := spawnOne(opts)
		if err != nil {
			for _, prev := range workers {
				prev.Close()
			}
			return nil, err
		}
		workers = append(workers, w)
	}
	return workers, nil
}

func spawnOne(opts service.Options) (*LocalWorker, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("fleet: spawning worker: %w", err)
	}
	svc := service.New(opts)
	w := &LocalWorker{
		svc:  svc,
		srv:  &http.Server{Handler: svc.Handler()},
		ln:   ln,
		addr: "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(w.done)
		_ = w.srv.Serve(ln)
	}()
	return w, nil
}

// Addr returns the worker's base URL ("http://127.0.0.1:port").
func (w *LocalWorker) Addr() string { return w.addr }

// Service exposes the underlying service (tests inspect cache counters).
func (w *LocalWorker) Service() *service.Service { return w.svc }

// Kill tears the worker down abruptly: the listener closes, in-flight
// requests (streaming shards included) are cancelled mid-compute, and
// open connections reset — the closest in-process stand-in for a crashed
// worker, which is exactly what the re-dispatch path must survive.
func (w *LocalWorker) Kill() {
	_ = w.srv.Close()
	w.svc.CancelInFlight()
	w.svc.Close()
	<-w.done
}

// Close shuts the worker down gracefully (accepted work finishes).
func (w *LocalWorker) Close() {
	_ = w.srv.Close()
	w.svc.Close()
	<-w.done
}

// Addrs collects the base URLs of workers.
func Addrs(workers []*LocalWorker) []string {
	out := make([]string, len(workers))
	for i, w := range workers {
		out[i] = w.Addr()
	}
	return out
}
