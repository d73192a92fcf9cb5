package shard

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"aod/internal/dataset"
	"aod/internal/telemetry"
)

// errWorkerDead marks a client whose connection already failed; calls on it
// fail fast so retry policy moves on immediately.
var errWorkerDead = errors.New("shard: worker connection is dead")

// workerClient is one job session's connection to one worker. Calls are
// strict request/response and serialized by mu (a straggler backup call on a
// busy client queues behind the in-flight one). Any transport error kills
// the client for the rest of the session. The death flag is atomic so
// liveness checks (session.alive, Width) never block behind an in-flight
// call that may be waiting out its full timeout.
type workerClient struct {
	addr string
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer

	// Wire-level telemetry handles, shared with the owning Cluster (nil-safe
	// when the cluster has no registry).
	txBytes *telemetry.Counter
	rxBytes *telemetry.Counter
	frames  *telemetry.Counter

	mu   sync.Mutex // serializes request/response exchanges
	dead atomic.Bool
}

// kill marks the client dead and closes its connection, failing any
// in-flight exchange fast. Safe to call from any goroutine, with or without
// mu held.
func (c *workerClient) kill() {
	c.dead.Store(true)
	c.conn.Close()
}

// call sends one frame and reads the reply, bounded by the per-call timeout
// and the context (cancellation forces the pending read to fail via an
// immediate deadline).
func (c *workerClient) call(ctx context.Context, timeout time.Duration, f *frame) (*frame, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead.Load() {
		return nil, errWorkerDead
	}
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	if d, ok := ctx.Deadline(); ok && (deadline.IsZero() || d.Before(deadline)) {
		deadline = d
	}
	c.conn.SetDeadline(deadline)
	stop := context.AfterFunc(ctx, func() { c.conn.SetDeadline(time.Now().Add(-time.Second)) })
	defer stop()
	n, err := writeFrame(c.bw, f)
	if err != nil {
		c.kill()
		return nil, err
	}
	c.txBytes.Add(uint64(n))
	c.frames.Inc()
	if err := c.bw.Flush(); err != nil {
		c.kill()
		return nil, err
	}
	rf, n, err := readFrame(c.br)
	c.rxBytes.Add(uint64(n))
	if err != nil {
		c.kill()
		return nil, err
	}
	c.frames.Inc()
	return rf, nil
}

// handshake runs the hello/dataset exchange on a fresh connection. The table
// ships only when this worker's cache misses the fingerprint; the frame
// encoder reads its rank buffers straight into the frame.
func (c *workerClient) handshake(ctx context.Context, timeout time.Duration, hello *helloMsg, tbl *dataset.Table) error {
	rf, err := c.call(ctx, timeout, &frame{T: "hello", Hello: hello})
	if err != nil {
		return err
	}
	ack, err := ackOf(rf)
	if err != nil {
		c.kill()
		return err
	}
	if ack.NeedDataset {
		rf, err = c.call(ctx, timeout, &frame{T: "dataset", Dataset: tbl})
		if err != nil {
			return err
		}
		if _, err := ackOf(rf); err != nil {
			c.kill()
			return err
		}
	}
	return nil
}

// runLevel processes one level slice on the worker.
func (c *workerClient) runLevel(ctx context.Context, timeout time.Duration, msg *levelMsg) (*resultMsg, error) {
	rf, err := c.call(ctx, timeout, &frame{T: "level", Level: msg})
	if err != nil {
		return nil, err
	}
	if rf.T != "result" || rf.Result == nil {
		c.kill()
		return nil, fmt.Errorf("shard: expected result frame, got %q", rf.T)
	}
	if rf.Result.Error != "" {
		c.kill()
		return nil, fmt.Errorf("shard: worker %s: %s", c.addr, rf.Result.Error)
	}
	return rf.Result, nil
}

func ackOf(rf *frame) (*ackMsg, error) {
	if rf.T != "ack" || rf.Ack == nil {
		return nil, fmt.Errorf("shard: expected ack frame, got %q", rf.T)
	}
	if rf.Ack.Error != "" {
		return nil, fmt.Errorf("shard: worker refused: %s", rf.Ack.Error)
	}
	if !rf.Ack.OK {
		return nil, errors.New("shard: worker refused without a reason")
	}
	return rf.Ack, nil
}
