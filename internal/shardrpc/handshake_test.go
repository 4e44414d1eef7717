package shardrpc

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"polardraw/internal/core"
	"polardraw/internal/reader"
	"polardraw/internal/session"
)

// fakeShard listens on loopback and hands every accepted connection,
// after reading its hello, to answer; it counts the connections.
func fakeShard(t *testing.T, answer func(c net.Conn)) (addr string, conns *atomic.Int32) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	conns = new(atomic.Int32)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			conns.Add(1)
			if _, _, err := readFrame(bufio.NewReader(c)); err == nil {
				answer(c)
			}
			c.Close()
		}
	}()
	return ln.Addr().String(), conns
}

// TestVersionHandshake pins the strict hello: any version other than
// protoVersion, or a malformed hello, fails with ErrVersionMismatch on
// both ends after exactly one connection attempt.
func TestVersionHandshake(t *testing.T) {
	_, ants := penStreams(t, 1, 61)
	_, addr := startServer(t, ServerConfig{Session: sessionCfg(ants, 0.2, 0)})

	// Happy path: Dial performs the handshake transparently.
	client, err := Dial(ClientConfig{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Ping(ctx); err != nil {
		t.Fatal(err)
	}
	client.Close(ctx)

	// Server side: older and newer versions, an identity-less hello,
	// truncated defaults, and a first frame that is not a hello all get
	// the explicit mismatch error, then a hangup.
	hello := func(v byte, id string, defaults bool) []byte {
		var e enc
		e.u8(v)
		if id != "" || defaults {
			_ = e.str(id)
		}
		if defaults {
			encodeOpenOptions(&e, session.OpenOptions{})
		}
		return e.b
	}
	for _, tc := range []struct {
		name    string
		op      byte
		payload []byte
	}{
		{"v4", opHello, hello(protoVersion-1, "c", true)},
		{"v6", opHello, hello(protoVersion+1, "c", true)},
		{"empty-id", opHello, hello(protoVersion, "", true)},
		{"no-defaults", opHello, hello(protoVersion, "c", false)},
		{"not-hello", opPing, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			raw, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer raw.Close()
			bw := bufio.NewWriter(raw)
			if err := writeFrame(bw, tc.op, tc.payload); err != nil {
				t.Fatal(err)
			}
			bw.Flush()
			raw.SetReadDeadline(time.Now().Add(5 * time.Second))
			br := bufio.NewReader(raw)
			op, payload, err := readFrame(br)
			if err != nil || op != opResp {
				t.Fatalf("op=0x%02x err=%v", op, err)
			}
			d := dec{b: payload}
			if err := checkStatus(&d); !errors.Is(err, ErrVersionMismatch) {
				t.Fatalf("error = %v, want ErrVersionMismatch", err)
			}
			if _, _, err := readFrame(br); !errors.Is(err, io.EOF) {
				t.Fatalf("after the mismatch: err = %v, want the server to hang up", err)
			}
		})
	}

	// Client side: a server answering with another version, and one
	// that hangs up on the hello, both fail Dial with
	// ErrVersionMismatch after exactly one connection.
	answerV := func(v byte) func(net.Conn) {
		return func(c net.Conn) {
			var e enc
			e.u8(statusOK)
			e.u8(v)
			bw := bufio.NewWriter(c)
			writeFrame(bw, opResp, e.b)
			bw.Flush()
		}
	}
	for _, tc := range []struct {
		name   string
		answer func(net.Conn)
	}{
		{"answers-v4", answerV(protoVersion - 1)},
		{"answers-v6", answerV(protoVersion + 1)},
		{"hangs-up", func(net.Conn) {}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fake, conns := fakeShard(t, tc.answer)
			if _, err := Dial(ClientConfig{Addr: fake}); !errors.Is(err, ErrVersionMismatch) {
				t.Fatalf("Dial = %v, want ErrVersionMismatch", err)
			}
			if n := conns.Load(); n != 1 {
				t.Fatalf("Dial made %d connections, want 1", n)
			}
		})
	}
}

// TestErrorTaxonomyRoundTrip pins errors.Is across the wire for every
// taxonomy sentinel a server can emit.
func TestErrorTaxonomyRoundTrip(t *testing.T) {
	_, ants := penStreams(t, 1, 67)
	cfg := sessionCfg(ants, 0.2, 0)
	cfg.MaxSessions = 1
	srv, addr := startServer(t, ServerConfig{Session: cfg})
	client, err := Dial(ClientConfig{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}

	// ErrUnknownEPC.
	if _, err := client.Finalize(ctx, "nobody"); !errors.Is(err, session.ErrUnknownEPC) {
		t.Fatalf("unknown EPC: %v", err)
	}

	// ErrSessionLimit: the cap of 1 rejects a second explicit Open.
	if err := client.Open(ctx, "pen-1", session.OpenOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := client.Open(ctx, "pen-2", session.OpenOptions{}); !errors.Is(err, session.ErrSessionLimit) {
		t.Fatalf("open past cap: %v, want ErrSessionLimit", err)
	}

	// ErrTooFewSamples: finalizing the freshly opened (empty) session.
	if _, err := client.Finalize(ctx, "pen-1"); !errors.Is(err, core.ErrTooFewSamples) {
		t.Fatalf("empty finalize: %v, want ErrTooFewSamples", err)
	}

	// ErrClosed: requests after the manager closed server-side.
	srv.Manager().Close()
	if err := client.Open(ctx, "pen-3", session.OpenOptions{}); !errors.Is(err, session.ErrClosed) {
		t.Fatalf("open after server close: %v, want ErrClosed", err)
	}

	// ErrBackendUnavailable: transport-level failure (server gone).
	srv.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := client.Ping(ctx)
		if errors.Is(err, session.ErrBackendUnavailable) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("ping against dead server: %v, want ErrBackendUnavailable", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	client.Close(ctx)
}

// TestOpenOptionsRemoteLocalBitEquivalence is the acceptance test for
// per-session decode options: the same options opened over the wire
// and in process, fed the same stream, must produce bit-identical
// Results — and those results must differ from the backend-default
// decode, proving the options actually took effect remotely.
func TestOpenOptionsRemoteLocalBitEquivalence(t *testing.T) {
	const pens = 3
	samples, ants := penStreams(t, pens, 71)
	perEPC := reader.SplitByEPC(samples)

	// Server/local defaults: unbounded decode. Per-session options pick
	// an aggressively different operating point so the decode visibly
	// changes.
	base := sessionCfg(ants, 0.2, 0)
	topK, lag, window := 48, 8, 0.25
	opts := session.OpenOptions{BeamTopK: &topK, CommitLag: &lag, Window: &window}

	local := session.NewLocalBackend(session.LocalConfig{Session: base})
	localDefault := session.NewLocalBackend(session.LocalConfig{Session: base})
	_, addr := startServer(t, ServerConfig{Session: base})
	client, err := Dial(ClientConfig{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}

	for epc := range perEPC {
		if err := local.Open(ctx, epc, opts); err != nil {
			t.Fatal(err)
		}
		if err := client.Open(ctx, epc, opts); err != nil {
			t.Fatal(err)
		}
		// localDefault gets no Open: backend defaults.
	}
	for _, b := range []session.ShardBackend{local, localDefault, client} {
		if err := b.DispatchBatch(ctx, samples); err != nil {
			t.Fatal(err)
		}
	}

	want, err := local.Close(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wantDefault, err := localDefault.Close(ctx)
	if err != nil {
		t.Fatal(err)
	}
	got, err := client.Close(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != pens || len(want) != pens {
		t.Fatalf("decoded local=%d remote=%d pens, want %d", len(want), len(got), pens)
	}
	differs := false
	for epc, w := range want {
		g, ok := got[epc]
		if !ok {
			t.Fatalf("remote missing EPC %s", epc)
		}
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("EPC %s: remote decode with options diverged from local", epc)
		}
		if !reflect.DeepEqual(w, wantDefault[epc]) {
			differs = true
		}
	}
	if !differs {
		t.Fatal("options changed nothing: default and optioned decodes identical for every pen (test has no teeth)")
	}
}

// TestRemoteSubscribeUnifiedStream checks the event push: a client
// subscription receives the same kinds a local subscription does —
// WindowClose/Point pairs, Commits, Evicts — with per-EPC payloads
// prefix-identical to the server side's own subscription.
func TestRemoteSubscribeUnifiedStream(t *testing.T) {
	const pens = 2
	samples, ants := penStreams(t, pens, 73)

	cfg := sessionCfg(ants, 0.25, 8)
	srv, addr := startServer(t, ServerConfig{Session: cfg})
	client, err := Dial(ClientConfig{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}

	type eventSink struct {
		mu  sync.Mutex
		evs []session.Event
	}
	run := func(ch <-chan session.Event) (*eventSink, chan struct{}) {
		s := &eventSink{}
		done := make(chan struct{})
		go func() {
			defer close(done)
			for ev := range ch {
				s.mu.Lock()
				s.evs = append(s.evs, ev)
				s.mu.Unlock()
			}
		}()
		return s, done
	}
	pensWithPoints := func(s *eventSink) int {
		s.mu.Lock()
		defer s.mu.Unlock()
		seen := map[string]bool{}
		for _, ev := range s.evs {
			if ev.Kind == session.EventPoint {
				seen[ev.EPC] = true
			}
		}
		return len(seen)
	}
	kindCount := func(s *eventSink, k session.EventKind) int {
		s.mu.Lock()
		defer s.mu.Unlock()
		n := 0
		for _, ev := range s.evs {
			if ev.Kind == k {
				n++
			}
		}
		return n
	}

	srvCh, srvCancel := srv.Manager().Subscribe(context.Background())
	srvSink, srvDone := run(srvCh)
	cliCh, cliCancel := client.Subscribe(context.Background())
	cliSink, cliDone := run(cliCh)

	if err := client.DispatchBatch(ctx, samples); err != nil {
		t.Fatal(err)
	}
	if err := client.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	// Wait for live events (points from every pen, at least one commit
	// — guaranteed eventually by the lag bound) BEFORE closing: the
	// close teardown stops event delivery.
	deadline := time.Now().Add(10 * time.Second)
	for pensWithPoints(cliSink) < pens || kindCount(cliSink, session.EventCommit) == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("streaming events incomplete: %d pens with points, %d commits",
				pensWithPoints(cliSink), kindCount(cliSink, session.EventCommit))
		}
		time.Sleep(5 * time.Millisecond)
	}
	// An explicit Finalize makes at least one Evict event observable
	// deterministically (evicts emitted during Close race the client's
	// own teardown).
	probe := samples[0].EPC
	if _, err := client.Finalize(ctx, probe); err != nil {
		t.Fatal(err)
	}
	for kindCount(cliSink, session.EventEvict) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no Evict event after explicit Finalize")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := client.Close(ctx); err != nil {
		t.Fatal(err)
	}
	cliCancel()
	<-cliDone
	srvCancel()
	<-srvDone
	srvEvents, cliEvents := srvSink.evs, cliSink.evs

	// Per EPC and kind, the remote stream must be a prefix of the
	// server-side stream (events racing the close may be cut off; the
	// server sheds at full queues only, and we check that).
	if srv.EventsDropped() > 0 {
		t.Logf("note: %d events shed at the subscriber queue", srv.EventsDropped())
	}
	key := func(ev session.Event) string { return ev.EPC + "/" + ev.Kind.String() }
	srvBy := map[string][]session.Event{}
	for _, ev := range srvEvents {
		srvBy[key(ev)] = append(srvBy[key(ev)], ev)
	}
	cliBy := map[string][]session.Event{}
	kinds := map[session.EventKind]int{}
	for _, ev := range cliEvents {
		cliBy[key(ev)] = append(cliBy[key(ev)], ev)
		kinds[ev.Kind]++
	}
	if kinds[session.EventPoint] == 0 || kinds[session.EventWindowClose] == 0 {
		t.Fatalf("remote stream missing streaming kinds: %v", kinds)
	}
	if kinds[session.EventCommit] == 0 {
		t.Fatalf("remote stream carried no Commit events despite CommitLag: %v", kinds)
	}
	if kinds[session.EventEvict] == 0 {
		t.Fatalf("remote stream carried no Evict events across Close: %v", kinds)
	}
	for k, evs := range cliBy {
		want := srvBy[k]
		if len(evs) > len(want) {
			t.Fatalf("%s: more remote events (%d) than server-side (%d)", k, len(evs), len(want))
		}
		if srv.EventsDropped() > 0 {
			continue // prefix property doesn't survive shedding
		}
		for i, ev := range evs {
			w := want[i]
			// Err values cross the wire as reconstructed sentinels;
			// compare their errors.Is identity, not pointers.
			if (ev.Err == nil) != (w.Err == nil) || (ev.Err != nil && !errors.Is(w.Err, ev.Err) && !errors.Is(ev.Err, w.Err)) {
				t.Fatalf("%s[%d]: err mismatch: %v vs %v", k, i, ev.Err, w.Err)
			}
			ev.Err, w.Err = nil, nil
			// Results cross as separate allocations; compare values.
			if (ev.Result == nil) != (w.Result == nil) {
				t.Fatalf("%s[%d]: result presence mismatch", k, i)
			}
			if ev.Result != nil && !reflect.DeepEqual(ev.Result, w.Result) {
				t.Fatalf("%s[%d]: result payload diverged across the wire", k, i)
			}
			ev.Result, w.Result = nil, nil
			if !reflect.DeepEqual(ev, w) {
				t.Fatalf("%s[%d]: payload diverged:\nremote: %+v\nlocal:  %+v", k, i, ev, w)
			}
		}
	}
}

// TestDeadRemoteDeadline is the acceptance test for context-aware
// remote calls: a Dispatch-then-Finalize against a server that
// accepted the connection (and completed the handshake) but never
// answers must return context.DeadlineExceeded promptly instead of
// hanging until CallTimeout.
func TestDeadRemoteDeadline(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				// Answer the handshake correctly, then go silent,
				// swallowing every request like a wedged server.
				br := bufio.NewReader(c)
				if _, _, err := readFrame(br); err != nil {
					return
				}
				var e enc
				e.u8(statusOK)
				e.u8(protoVersion)
				bw := bufio.NewWriter(c)
				writeFrame(bw, opResp, e.b)
				bw.Flush()
				for {
					if _, _, err := readFrame(br); err != nil {
						c.Close()
						return
					}
				}
			}(c)
		}
	}()

	client, err := Dial(ClientConfig{Addr: ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Dispatch(ctx, reader.Sample{EPC: "pen-1"}); err != nil {
		t.Fatal(err) // buffered one-way: must not block
	}

	dctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = client.Finalize(dctx, "pen-1")
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Finalize against silent server = %v, want context.DeadlineExceeded", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("Finalize took %v to honour a 150ms deadline", elapsed)
	}

	// The same promptness for a blocked Stats, via cancellation.
	cctx, ccancel := context.WithCancel(context.Background())
	go func() { time.Sleep(50 * time.Millisecond); ccancel() }()
	if _, err := client.Stats(cctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Stats under cancellation = %v, want context.Canceled", err)
	}
	client.Close(dctx)
}

// TestProtoOpenOptionsRoundTrip checks the options codec over awkward
// values: explicit zeroes stay distinct from absent fields.
func TestProtoOpenOptionsRoundTrip(t *testing.T) {
	zero, k, lag := 0, 192, 64
	adaptive := true
	window, spur := 0.3, 0.15
	cases := []session.OpenOptions{
		{},
		{BeamTopK: &zero},
		{BeamTopK: &k, CommitLag: &lag},
		{BeamTopK: &k, CommitLag: &zero, BeamAdaptive: &adaptive, Window: &window, SpuriousPhase: &spur},
	}
	for i, o := range cases {
		var e enc
		encodeOpenOptions(&e, o)
		d := dec{b: e.b}
		got := decodeOpenOptions(&d)
		if d.err != nil || d.remaining() != 0 {
			t.Fatalf("case %d: err=%v remaining=%d", i, d.err, d.remaining())
		}
		if !reflect.DeepEqual(got, o) {
			t.Fatalf("case %d: round-trip %+v != %+v", i, got, o)
		}
	}
	// Truncations latch an error, never fabricate options.
	full := cases[3]
	var e enc
	encodeOpenOptions(&e, full)
	for cut := 0; cut < len(e.b); cut++ {
		d := dec{b: e.b[:cut]}
		decodeOpenOptions(&d)
		if d.err == nil {
			t.Fatalf("truncation at %d undetected", cut)
		}
	}
}
