package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/rescache"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/vec"
	"repro/internal/wal"
)

// stack is the serving stack under test: a sharded index, its result
// cache, optional per-shard WALs, and the HTTP server in front of them.
type stack struct {
	sh     *shard.Sharded
	cache  *rescache.Cache
	walDir string
	front  *front

	buildDur, readyDur time.Duration
}

// front is one HTTP server listening on a loopback port.
type front struct {
	addr string
	stop func() error
}

// buildStack builds the index and starts the plain server on it: the
// set-up a user of the serve command pays, from points to a ready server.
// tr, when non-nil, wraps the cache invalidation hook in a span.
func buildStack(w *workload, pts []vec.Point, workDir string, tr *tracer) (*stack, error) {
	st := &stack{}
	t0 := time.Now()
	sh, err := shard.Build(pts, vec.UnitCube(w.d), indexOptions())
	if err != nil {
		return nil, fmt.Errorf("building index: %w", err)
	}
	st.sh = sh
	st.cache = rescache.New(cacheEntries)
	if tr == nil {
		sh.SetMutationHook(st.cache.Invalidate)
	} else {
		sh.SetMutationHook(tr.invalidate(st.cache.Invalidate))
	}
	if w.wal {
		if err := os.MkdirAll(workDir, 0o755); err != nil {
			st.close()
			return nil, err
		}
		if st.walDir, err = os.MkdirTemp(workDir, "wal-"); err != nil {
			st.close()
			return nil, err
		}
		if err := sh.OpenWALs(st.walDir, wal.Options{Policy: wal.SyncInterval, Interval: 100 * time.Millisecond}); err != nil {
			st.close()
			return nil, fmt.Errorf("opening wals: %w", err)
		}
	}
	t1 := time.Now()
	st.front, err = startPlain(sh, st.cache)
	if err != nil {
		st.close()
		return nil, err
	}
	st.buildDur = t1.Sub(t0)
	st.readyDur = time.Since(t1)
	return st, nil
}

// close stops the server, closes the index and its logs, and removes the
// log directory.
func (st *stack) close() error {
	var errs []error
	if st.front != nil {
		errs = append(errs, st.front.stop())
	}
	errs = append(errs, st.sh.Close())
	if st.walDir != "" {
		errs = append(errs, os.RemoveAll(st.walDir))
	}
	return errors.Join(errs...)
}

// startPlain serves ix through server.Server's own listener, as the serve
// command does.
func startPlain(ix server.Index, cache *rescache.Cache) (*front, error) {
	srv := server.New(ix, server.Config{Cache: cache})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx) }()
	f := &front{addr: srv.Addr(), stop: func() error {
		cancel()
		return <-done
	}}
	if err := waitReady(f.addr); err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

// startTraced starts a second server on the stack's index and cache: a
// server.Server given the traced index, behind the tracer's handler, on an
// http.Server configured like server.Server's own.
func startTraced(st *stack, tr *tracer) (*front, error) {
	srv := server.New(&tracedIndex{Sharded: st.sh, t: tr}, server.Config{Cache: st.cache})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{
		Handler:           tr.handler(srv.Handler()),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
		MaxHeaderBytes:    16 << 10,
	}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	f := &front{addr: ln.Addr().String(), stop: func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := hs.Shutdown(ctx)
		if serr := <-done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
			err = serr
		}
		return err
	}}
	if err := waitReady(f.addr); err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

// waitReady polls /healthz until the server reports ready.
func waitReady(addr string) error {
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr, Timeout: 5 * time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for {
		res, err := hc.Get("http://" + addr + "/healthz")
		if err == nil {
			io.Copy(io.Discard, res.Body)
			res.Body.Close()
			if res.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server at %s not ready: %v", addr, err)
		}
		time.Sleep(time.Millisecond)
	}
}
