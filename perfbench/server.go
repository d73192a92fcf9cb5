package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"

	"aod/internal/load"
)

// server is an aodserver under test.
type server interface {
	// url is the base URL, e.g. http://127.0.0.1:40123.
	url() string
	// pid is the process whose CPU time and peak memory are the server's.
	pid() int
	// stop shuts the server down, waits for it, and deletes its data.
	stop()
}

// procServer is an aodserver child process.
type procServer struct {
	cmd  *exec.Cmd
	base string
	dir  string
	done chan struct{} // closed once the process has exited
}

// startProcServer starts bin with its defaults except a loopback ephemeral
// port and a fresh data directory, so datasets and reports are persisted
// with group-committed fsyncs. It returns once the server answers /healthz.
func startProcServer(ctx context.Context, bin, dir string) (*procServer, error) {
	if bin == "" {
		return nil, errors.New("no aodserver binary given (-server-bin)")
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-data-dir", dir)
	// The server must not outlive the benchmark, however the benchmark ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting aodserver: %w", err)
	}
	s := &procServer{cmd: cmd, dir: dir, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		first := true
		for sc.Scan() {
			if first {
				first = false
				// "aodserver listening on HOST:PORT (...)"
				f := strings.Fields(strings.TrimPrefix(sc.Text(), "aodserver listening on "))
				if len(f) > 0 {
					addr <- f[0]
				}
				close(addr)
			}
		}
		if first {
			close(addr)
		}
		_, _ = io.Copy(io.Discard, stdout)
		_ = cmd.Wait()
		close(s.done)
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			s.stop()
			return nil, errors.New("aodserver exited before listening")
		}
		s.base = "http://" + a
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, errors.New("aodserver did not start within 30s")
	case <-ctx.Done():
		s.stop()
		return nil, ctx.Err()
	}
	if err := waitHealthy(ctx, s.base); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

func (s *procServer) url() string { return s.base }
func (s *procServer) pid() int    { return s.cmd.Process.Pid }

// stop sends SIGTERM (the server drains and exits), escalating to SIGKILL
// after 15 seconds, waits for the exit and removes the data directory.
func (s *procServer) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
	_ = os.RemoveAll(s.dir)
}

// waitHealthy polls GET /healthz until it answers 200, for up to 30 seconds.
func waitHealthy(ctx context.Context, base string) error {
	c := load.NewClient(base)
	deadline := time.Now().Add(30 * time.Second)
	for {
		err := c.Health(ctx)
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return fmt.Errorf("aodserver at %s not healthy: %w", base, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
