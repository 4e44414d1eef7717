//go:build linux

package shardrpc

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"polardraw/internal/reader"
)

// tinyBufConn shrinks a TCP connection's kernel socket buffers so a
// peer that stops reading fills them after a few frames.
func tinyBufConn(c net.Conn) net.Conn {
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetReadBuffer(4 << 10)
		_ = tc.SetWriteBuffer(4 << 10)
	}
	return c
}

// clampMSS caps a socket's TCP segment size before it connects. On
// loopback the MSS is ~64 KiB; with a receive window of a few KiB,
// Linux then moves queued data only on persist-timer probes, which
// back off exponentially and look like a stall of their own.
func clampMSS(_, _ string, rc syscall.RawConn) error {
	var serr error
	if err := rc.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), syscall.IPPROTO_TCP, syscall.TCP_MAXSEG, 1024)
	}); err != nil {
		return err
	}
	return serr
}

// tinyBufListener applies tinyBufConn to every accepted connection.
type tinyBufListener struct{ net.Listener }

func (l tinyBufListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return tinyBufConn(c), nil
}

// TestUnpacedSubscriberNoDeadlock pins the flow-control invariant of
// both ends: no read loop waits on a socket write, directly or through
// a lock a frame writer holds across one. Otherwise an unpaced sender
// with a subscriber deadlocks the connection: the client writer blocks
// on a full socket holding the client mutex, the client read loop waits
// for that mutex and stops draining events, the server blocks writing
// events and acks to a client that no longer reads, and so stops
// reading the writer's frames. 4 KiB socket buffers on both ends make
// the cycle close after a few frames (the client's MSS clamp applies to
// both directions); a progress watchdog fails the test when dispatch
// stalls.
func TestUnpacedSubscriberNoDeadlock(t *testing.T) {
	const pens, replicas, batchSize = 8, 40, 16
	samples, ants := penStreams(t, pens, 61)

	cfg := sessionCfg(ants, 0.2, 8)
	cfg.MaxSessions = pens * replicas
	cfg.QueueSize = 32              // short session queues: the server read loop often waits on decode
	cfg.Tracker.GreedyDecode = true // the wire is under test, not decode
	srv := NewServer(ServerConfig{Session: cfg})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(tinyBufListener{ln})
	t.Cleanup(srv.Close)

	var connMu sync.Mutex
	var conns []net.Conn
	client, err := Dial(ClientConfig{
		Addr:      ln.Addr().String(),
		BatchSize: batchSize,
		Dialer: func(addr string, timeout time.Duration) (net.Conn, error) {
			d := net.Dialer{Timeout: timeout, Control: clampMSS}
			c, err := d.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			connMu.Lock()
			conns = append(conns, c)
			connMu.Unlock()
			return tinyBufConn(c), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	events, cancelEvents := client.Subscribe(ctx)
	defer cancelEvents()
	drained := make(chan int, 1)
	go func() {
		n := 0
		for range events {
			n++
		}
		drained <- n
	}()

	var sent atomic.Int64
	done := make(chan error, 1)
	go func() {
		for r := 0; r < replicas; r++ {
			for lo := 0; lo < len(samples); lo += batchSize {
				batch := make([]reader.Sample, 0, batchSize)
				for _, smp := range samples[lo:min(lo+batchSize, len(samples))] {
					smp.EPC = fmt.Sprintf("%s-%d", smp.EPC, r)
					batch = append(batch, smp)
				}
				if err := client.DispatchBatch(ctx, batch); err != nil {
					done <- err
					return
				}
				sent.Add(int64(len(batch)))
			}
		}
		done <- client.Flush(ctx)
	}()

	const stallAfter = 3 * time.Second
	total := int64(replicas * len(samples))
	last, lastMove := int64(-1), time.Now()
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for finished := false; !finished; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("dispatch failed after %d of %d samples: %v", sent.Load(), total, err)
			}
			finished = true
		case <-tick.C:
			if n := sent.Load(); n != last {
				last, lastMove = n, time.Now()
			} else if time.Since(lastMove) > stallAfter {
				// Release the wedged writer before failing: a write
				// blocked on a zero window outlives the server's close.
				srv.Abort()
				connMu.Lock()
				for _, c := range conns {
					c.Close()
				}
				connMu.Unlock()
				<-done
				t.Fatalf("dispatch stalled after %d of %d samples for %v", n, total, stallAfter)
			}
		}
	}
	results, err := client.Close(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != pens*replicas {
		t.Fatalf("Close finalized %d sessions, want %d", len(results), pens*replicas)
	}
	if lost := client.Lost(); lost != 0 {
		t.Fatalf("Lost = %d, want 0", lost)
	}
	if n := <-drained; n == 0 {
		t.Fatal("subscriber saw no events")
	}
}
