package shardrpc

import (
	"bufio"
	"context"
	"io"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"polardraw/internal/geom"
	"polardraw/internal/reader"
	"polardraw/internal/session"
)

// flakyProxy forwards TCP between the client and a real server and can
// kill every live connection, simulating a transport failure that
// leaves the server's state intact.
type flakyProxy struct {
	ln     net.Listener
	target string
	mu     sync.Mutex
	conns  []net.Conn
}

func newFlakyProxy(t *testing.T, target string) *flakyProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &flakyProxy{ln: ln, target: target}
	go p.run()
	t.Cleanup(func() { p.ln.Close(); p.killConns() })
	return p
}

func (p *flakyProxy) addr() string { return p.ln.Addr().String() }

func (p *flakyProxy) run() {
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		s, err := net.Dial("tcp", p.target)
		if err != nil {
			c.Close()
			continue
		}
		p.mu.Lock()
		p.conns = append(p.conns, c, s)
		p.mu.Unlock()
		go func() { io.Copy(s, c); s.Close() }()
		go func() { io.Copy(c, s); c.Close() }()
	}
}

// killConns severs every in-flight connection; the proxy keeps
// accepting, so redials go through.
func (p *flakyProxy) killConns() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.conns {
		c.Close()
	}
	p.conns = nil
}

// TestSeqResendAfterReconnect is the acceptance test for satellite #1:
// a transport failure mid-stream must not lose the buffered or
// in-flight samples — the client resends the unacknowledged tail after
// its automatic reconnect, the server deduplicates by sequence, and
// the decode stays bit-identical to an uninterrupted local run with
// Lost — which now means gone-for-good — at zero.
func TestSeqResendAfterReconnect(t *testing.T) {
	const pens = 3
	samples, ants := penStreams(t, pens, 83)
	const window, lag = 0.2, 16

	local := session.NewLocalBackend(session.LocalConfig{Session: sessionCfg(ants, window, lag)})
	if err := local.DispatchBatch(ctx, samples); err != nil {
		t.Fatal(err)
	}
	want, err := local.Close(ctx)
	if err != nil {
		t.Fatal(err)
	}

	_, addr := startServer(t, ServerConfig{Session: sessionCfg(ants, window, lag)})
	proxy := newFlakyProxy(t, addr)
	client, err := Dial(ClientConfig{
		Addr:          proxy.addr(),
		BatchSize:     16,
		RedialBackoff: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	// First half, then a transport failure, then the rest. Dispatch
	// errors during the outage are delivery delays — the
	// samples stay buffered — so only the final flush must succeed.
	half := len(samples) / 2
	if err := client.DispatchBatch(ctx, samples[:half]); err != nil {
		t.Fatal(err)
	}
	_ = client.Flush(ctx)
	proxy.killConns()
	for _, smp := range samples[half:] {
		_ = client.Dispatch(ctx, smp)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := client.Flush(ctx); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("flush never recovered after the transport failure")
		}
		time.Sleep(5 * time.Millisecond)
	}

	got, err := client.Close(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d pens remotely, want %d", len(got), len(want))
	}
	for epc, w := range want {
		if !reflect.DeepEqual(got[epc], w) {
			t.Fatalf("EPC %s: decode across a reconnect diverged from the uninterrupted local run", epc)
		}
	}
	if lost := client.Lost(); lost != 0 {
		t.Fatalf("Lost = %d across a transport failure with resend", lost)
	}
	if client.Reconnects() == 0 {
		t.Fatal("no reconnect recorded: the test never exercised the failure path")
	}
}

// dialRaw performs a raw handshake with an explicit client
// identity, returning the conn and its buffered writer.
func dialRaw(t *testing.T, addr, clientID string) (net.Conn, *bufio.Writer) {
	t.Helper()
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	bw := bufio.NewWriter(raw)
	var e enc
	if err := encodeHello(&e, clientID, session.OpenOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(bw, opHello, e.b); err != nil {
		t.Fatal(err)
	}
	bw.Flush()
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	op, payload, err := readFrame(raw)
	if err != nil || op != opResp {
		t.Fatalf("hello: op=0x%02x err=%v", op, err)
	}
	d := dec{b: payload}
	if err := checkStatus(&d); err != nil {
		t.Fatal(err)
	}
	if v := d.u8(); v != protoVersion {
		t.Fatalf("server answered v%d, want v%d", v, protoVersion)
	}
	return raw, bw
}

// readAck reads frames until an opAck arrives and decodes it.
func readAck(t *testing.T, conn net.Conn) (acked, rejected uint64) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for {
		op, payload, err := readFrame(conn)
		if err != nil {
			t.Fatalf("waiting for ack: %v", err)
		}
		if op != opAck {
			continue
		}
		d := dec{b: payload}
		acked, rejected = d.u64(), d.u64()
		if d.err != nil {
			t.Fatal(d.err)
		}
		return acked, rejected
	}
}

// TestSeqDedupIdempotence pins the server-side replay contract at the
// wire level: the same opDispatchSeq frame delivered twice — on the
// same connection or on a fresh one with the same client identity —
// applies every sample exactly once.
func TestSeqDedupIdempotence(t *testing.T) {
	_, ants := penStreams(t, 1, 89)
	srv, addr := startServer(t, ServerConfig{Session: sessionCfg(ants, 0.2, 0)})

	const n = 5
	batch := make([]reader.Sample, n)
	for i := range batch {
		batch[i] = reader.Sample{EPC: "pen-dup", T: float64(i) * 0.01, RSS: -60}
	}
	var df enc
	df.u64(1) // first sequence number
	if err := encodeSamples(&df, batch); err != nil {
		t.Fatal(err)
	}
	frame := df.b

	conn, bw := dialRaw(t, addr, "dup-client")
	defer conn.Close()
	send := func(c net.Conn, w *bufio.Writer) (uint64, uint64) {
		t.Helper()
		if err := writeFrame(w, opDispatchSeq, frame); err != nil {
			t.Fatal(err)
		}
		w.Flush()
		return readAck(t, c)
	}

	received := func() uint64 {
		for _, st := range srv.Manager().Stats() {
			if st.EPC == "pen-dup" {
				return st.Received
			}
		}
		return 0
	}

	if acked, rejected := send(conn, bw); acked != n || rejected != 0 {
		t.Fatalf("first frame: acked=%d rejected=%d, want %d/0", acked, rejected, n)
	}
	if got := received(); got != n {
		t.Fatalf("received %d samples after first frame, want %d", got, n)
	}
	// Same frame again on the same connection: acknowledged, not
	// re-applied.
	if acked, rejected := send(conn, bw); acked != n || rejected != 0 {
		t.Fatalf("duplicate frame: acked=%d rejected=%d, want %d/0", acked, rejected, n)
	}
	if got := received(); got != n {
		t.Fatalf("received %d samples after duplicate, want %d — dedup failed", got, n)
	}

	// A reconnect with the same identity (exactly what the client's
	// resend path does) keeps the sequence state.
	conn.Close()
	conn2, bw2 := dialRaw(t, addr, "dup-client")
	defer conn2.Close()
	if acked, rejected := send(conn2, bw2); acked != n || rejected != 0 {
		t.Fatalf("resend after reconnect: acked=%d rejected=%d, want %d/0", acked, rejected, n)
	}
	if got := received(); got != n {
		t.Fatalf("received %d samples after reconnect resend, want %d", got, n)
	}
}

// TestAckRejectedCountsLost: samples the server's manager refuses are
// acknowledged as rejected and surface in the client's Lost — they are
// gone for good, unlike transport-delayed ones.
func TestAckRejectedCountsLost(t *testing.T) {
	_, ants := penStreams(t, 1, 97)
	srv, addr := startServer(t, ServerConfig{Session: sessionCfg(ants, 0.2, 0)})
	client, err := Dial(ClientConfig{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close(ctx)

	// Close the manager under the live server: every dispatch now
	// fails server-side.
	srv.Manager().Close()
	const n = 7
	for i := 0; i < n; i++ {
		if err := client.Dispatch(ctx, reader.Sample{EPC: "pen-x", T: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := client.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	// A synchronous call flushes the samples ahead of its request, and
	// the server acks them before it answers: Lost is current the
	// moment the call returns, with no polling.
	if err := client.Ping(ctx); err != nil {
		t.Fatal(err)
	}
	if lost := client.Lost(); lost != n {
		t.Fatalf("Lost = %d right after a synchronous call, want %d rejected samples", lost, n)
	}
}

// TestResubscribeCatchUpCommits is the acceptance test for satellite
// #2: a subscription that dies with its connection is re-armed on
// reconnect, and the server's catch-up commit (the full committed
// prefix from index 0) closes any EventCommit gap opened during the
// outage — a consumer mirroring the trajectory from commit events
// reconstructs the server's committed prefix exactly.
func TestResubscribeCatchUpCommits(t *testing.T) {
	samples, ants := penStreams(t, 1, 101)
	epc := samples[0].EPC

	srv, addr := startServer(t, ServerConfig{Session: sessionCfg(ants, 0.2, 2)})
	proxy := newFlakyProxy(t, addr)
	client, err := Dial(ClientConfig{
		Addr:          proxy.addr(),
		BatchSize:     16,
		RedialBackoff: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Mirror the committed prefix from commit events, by absolute
	// index: overlapping segments (live commits vs the catch-up replay)
	// are idempotent.
	var mu sync.Mutex
	mirror := map[int]geom.Vec2{}
	covered := func() int {
		mu.Lock()
		defer mu.Unlock()
		n := 0
		for {
			if _, ok := mirror[n]; !ok {
				return n
			}
			n++
		}
	}
	ch, cancel := client.Subscribe(context.Background())
	defer cancel()
	go func() {
		for ev := range ch {
			if ev.Kind != session.EventCommit || ev.EPC != epc {
				continue
			}
			mu.Lock()
			for k, pt := range ev.Segment {
				mirror[int(ev.CommitStart)+k] = pt
			}
			mu.Unlock()
		}
	}()

	// Stream the first chunk and wait for live commits to flow.
	third := len(samples) * 2 / 3
	if err := client.DispatchBatch(ctx, samples[:third]); err != nil {
		t.Fatal(err)
	}
	_ = client.Flush(ctx)
	deadline := time.Now().Add(10 * time.Second)
	for covered() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no commits before the outage")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Sever the transport. Commits fired while the subscription is down
	// are gone from the push stream; the catch-up on resubscribe must
	// repair the gap.
	proxy.killConns()
	for _, smp := range samples[third:] {
		_ = client.Dispatch(ctx, smp)
	}
	for {
		if err := client.Flush(ctx); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("flush never recovered")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if client.Reconnects() == 0 {
		t.Fatal("no reconnect: the outage never happened")
	}

	// The mirror must converge on the server's committed prefix with no
	// gap: every index below the server's commit watermark present and
	// bit-identical.
	for {
		prefix := srv.Manager().CommittedPrefixes()[epc]
		if len(prefix) > 0 {
			mu.Lock()
			ok := true
			for i, want := range prefix {
				if got, present := mirror[i]; !present || got != want {
					ok = false
					break
				}
			}
			mu.Unlock()
			if ok && covered() >= len(prefix) {
				return
			}
		}
		if time.Now().After(deadline) {
			prefix := srv.Manager().CommittedPrefixes()[epc]
			t.Fatalf("commit mirror never converged: %d/%d indices covered gaplessly",
				covered(), len(prefix))
		}
		time.Sleep(5 * time.Millisecond)
	}
}
