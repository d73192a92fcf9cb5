package shard

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"aod/internal/core"
	"aod/internal/dataset"
	"aod/internal/gen"
)

// writeJSONFrame hand-rolls a length-prefixed JSON frame the way every
// protocol generation does — the handshake stays JSON across versions
// precisely so that skew tests like these exercise the real rejection path,
// not a simulation of it.
func writeJSONFrame(t *testing.T, conn net.Conn, v any) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := conn.Write(append(hdr[:], body...)); err != nil {
		t.Fatal(err)
	}
}

func readJSONFrame(t *testing.T, conn net.Conn, v any) {
	t.Helper()
	var hdr [4]byte
	if _, err := conn.Read(hdr[:]); err != nil {
		t.Fatal(err)
	}
	body := make([]byte, binary.BigEndian.Uint32(hdr[:]))
	if _, err := conn.Read(body); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatalf("decoding %q: %v", body, err)
	}
}

// TestVersionSkewV1CoordinatorRejected pins the forward half of the skew
// contract: a v1 coordinator greeting a current-version worker gets an
// explicit in-band ack error naming both protocol numbers — never a hang or
// a garbage decode.
func TestVersionSkewV1CoordinatorRejected(t *testing.T) {
	w := NewWorker(WorkerOptions{})
	client, server := net.Pipe()
	done := make(chan struct{})
	go func() { w.ServeConn(server); close(done) }()
	client.SetDeadline(time.Now().Add(5 * time.Second))

	// A v1 hello is byte-compatible with every later hello: JSON, proto: 1.
	writeJSONFrame(t, client, &frame{T: "hello", Hello: &helloMsg{Proto: 1, Fingerprint: "fp", Rows: 10, Cols: 2}})
	var rf frame
	readJSONFrame(t, client, &rf)
	if rf.T != "ack" || rf.Ack == nil {
		t.Fatalf("worker answered a v1 hello with %+v, want an ack", rf)
	}
	if rf.Ack.OK || rf.Ack.Error == "" {
		t.Fatalf("worker accepted a v1 hello: %+v", rf.Ack)
	}
	if !strings.Contains(rf.Ack.Error, "protocol 1") ||
		!strings.Contains(rf.Ack.Error, fmt.Sprintf("want %d", protoVersion)) {
		t.Errorf("skew rejection should name both versions, got %q", rf.Ack.Error)
	}
	client.Close()
	<-done
}

// TestVersionSkewV1WorkerRejected pins the reverse half: a current-version
// coordinator dialing a v1 worker (which parses the JSON hello, sees a proto
// it does not speak, and refuses in-band exactly as every generation does)
// surfaces a clear handshake error.
func TestVersionSkewV1WorkerRejected(t *testing.T) {
	refusal := fmt.Sprintf("protocol %d not supported (want 1)", protoVersion)
	client, server := net.Pipe()
	defer client.Close()
	go func() {
		// Simulated v1 worker: all-JSON protocol, refuses proto != 1 with the
		// same in-band ack shape every later version uses.
		defer server.Close()
		br := bufio.NewReader(server)
		f, _, err := readFrame(br) // v1 parses any generation's JSON hello
		if err != nil || f.T != "hello" || f.Hello == nil {
			return
		}
		body, _ := json.Marshal(&frame{T: "ack", Ack: &ackMsg{Error: refusal}})
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
		server.Write(append(hdr[:], body...))
	}()

	c := &workerClient{addr: "v1-worker", conn: client, br: bufio.NewReader(client), bw: bufio.NewWriter(client)}
	err := c.handshake(context.Background(), 5*time.Second,
		&helloMsg{Proto: protoVersion, Fingerprint: "fp", Rows: 10, Cols: 2}, nil)
	if err == nil {
		t.Fatal("handshake with a v1 worker succeeded, want an explicit rejection")
	}
	if !strings.Contains(err.Error(), refusal) {
		t.Errorf("skew error should carry the worker's refusal verbatim, got %v", err)
	}
	if !c.dead.Load() {
		t.Error("a refused handshake should mark the worker client dead")
	}
}

// TestVersionSkewBinaryFrameRejected pins that a binary frame from a
// different protocol generation (wrong version byte) is refused at decode,
// before any payload parsing.
func TestVersionSkewBinaryFrameRejected(t *testing.T) {
	body := encodeLevelPayload([]byte{binMagic, protoVersion + 1, binLevel}, &levelMsg{Level: 1})
	if _, err := decodeFrame(body); err == nil || !strings.Contains(err.Error(), "protocol") {
		t.Fatalf("decodeFrame accepted a version-skewed binary frame: %v", err)
	}
}

// TestWorkerRefusesMalformedLevel sends a worker, after a valid handshake,
// a level frame whose task does not fit the table: one with no ParentConst
// words for its two attributes, and one naming column 9 of a 4-column table.
// Either would index past a slice in the task runner. The worker must answer
// with an error result frame and end the session instead of panicking,
// which would kill an aodworker process, and must then serve the next
// session.
func TestWorkerRefusesMalformedLevel(t *testing.T) {
	tbl := gen.Uniform(100, 4, 3, 7)
	hello := &helloMsg{Proto: protoVersion, Fingerprint: dataset.Fingerprint(tbl),
		Rows: tbl.NumRows(), Cols: tbl.NumCols(), Config: core.Config{Threshold: 0.1}}
	w := NewWorker(WorkerOptions{})
	session := func() (*workerClient, chan struct{}) {
		client, server := net.Pipe()
		done := make(chan struct{})
		go func() { w.ServeConn(server); close(done) }()
		c := &workerClient{addr: "pipe", conn: client, br: bufio.NewReader(client), bw: bufio.NewWriter(client)}
		if err := c.handshake(context.Background(), 5*time.Second, hello, tbl); err != nil {
			t.Fatal(err)
		}
		return c, done
	}
	for _, task := range []core.NodeTask{{Set: 3, Level: 2}, {Set: 1 << 9, Level: 1}} {
		c, done := session()
		_, err := c.runLevel(context.Background(), 5*time.Second, &levelMsg{Level: task.Level, Tasks: []core.NodeTask{task}})
		if err == nil || !strings.Contains(err.Error(), "task 0") {
			t.Errorf("task %+v: worker answered %v, want an error result naming the task", task, err)
		}
		<-done
	}
	c, done := session()
	res, err := c.runLevel(context.Background(), 5*time.Second,
		&levelMsg{Level: 2, Tasks: []core.NodeTask{{Set: 3, Level: 2, ParentConst: make([]uint64, 2)}}})
	if err != nil || len(res.Results) != 1 || res.Results[0].Candidates == 0 {
		t.Fatalf("the session after the refusals answered %+v, %v; want one task's results", res, err)
	}
	c.kill()
	<-done
}
