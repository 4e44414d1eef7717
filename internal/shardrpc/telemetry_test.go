package shardrpc

import (
	"context"
	"reflect"
	"testing"
	"time"

	"polardraw/internal/session"
	"polardraw/internal/telemetry"
)

// TestSubscribeOptionsCodecRoundTrip pins the filter wire form:
// kind and EPC allow-lists survive encode/decode exactly, and hostile
// counts are rejected before allocation.
func TestSubscribeOptionsCodecRoundTrip(t *testing.T) {
	o := session.SubscribeOptions{
		Kinds: []session.EventKind{session.EventCommit, session.EventEvict},
		EPCs:  []string{"pen-1", "pen-2"},
	}
	var e enc
	if err := encodeSubscribeOptions(&e, o); err != nil {
		t.Fatalf("encode: %v", err)
	}
	got := decodeSubscribeOptions(&dec{b: e.b})
	if !reflect.DeepEqual(got, o) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, o)
	}

	// The zero filter encodes and decodes back to zero (subscribe to
	// everything).
	var ze enc
	if err := encodeSubscribeOptions(&ze, session.SubscribeOptions{}); err != nil {
		t.Fatalf("encode zero: %v", err)
	}
	if got := decodeSubscribeOptions(&dec{b: ze.b}); !got.IsZero() {
		t.Fatalf("zero filter round-tripped to %+v", got)
	}

	// A hostile EPC count with no backing bytes must fail decode, not
	// allocate.
	var h enc
	h.u16(0)      // no kinds
	h.u16(0xffff) // claimed EPCs, no bytes
	d := &dec{b: h.b}
	if got := decodeSubscribeOptions(d); d.err == nil || len(got.EPCs) != 0 {
		t.Fatalf("hostile count decoded to %+v (err %v), want error", got, d.err)
	}
}

// TestTelemetryCodecRoundTrip pins the snapshot wire form: counters,
// gauges, and sparse-encoded histograms survive encode/decode exactly,
// and hostile section counts fail before allocation.
func TestTelemetryCodecRoundTrip(t *testing.T) {
	r := telemetry.NewRegistry()
	r.Counter("polardraw_router_sheds_total").Add(7)
	r.Gauge("polardraw_session_queue_depth").Set(3.5)
	h := r.Histogram("polardraw_journal_append_seconds")
	for _, x := range []float64{0.0001, 0.002, 0.002, 1.5} {
		h.Observe(x)
	}
	want := r.Snapshot()

	var e enc
	if err := encodeTelemetry(&e, want); err != nil {
		t.Fatalf("encode: %v", err)
	}
	got := decodeTelemetry(&dec{b: e.b})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}

	// An empty snapshot round-trips to empty maps, not nils.
	var ee enc
	if err := encodeTelemetry(&ee, telemetry.Snapshot{}); err != nil {
		t.Fatalf("encode empty: %v", err)
	}
	if got := decodeTelemetry(&dec{b: ee.b}); len(got.Counters) != 0 ||
		len(got.Gauges) != 0 || len(got.Histograms) != 0 ||
		got.Counters == nil || got.Gauges == nil || got.Histograms == nil {
		t.Fatalf("empty snapshot round-tripped to %+v", got)
	}

	// Hostile histogram count with no backing bytes.
	var hb enc
	hb.u32(0)          // counters
	hb.u32(0)          // gauges
	hb.u32(0xffffffff) // claimed histograms, no bytes
	d := &dec{b: hb.b}
	if got := decodeTelemetry(d); d.err == nil || len(got.Histograms) != 0 {
		t.Fatalf("hostile count decoded to %+v (err %v), want error", got, d.err)
	}
}

// TestTelemetryRPC is the stats path e2e: a server wired to a
// registry serves its snapshot over opTelemetry, including decode-layer
// histograms recorded by the session tier and the server's own RPC
// frame metrics.
func TestTelemetryRPC(t *testing.T) {
	samples, ants := penStreams(t, 2, 17)
	reg := telemetry.NewRegistry()
	cfg := sessionCfg(ants, 0.2, 8)
	cfg.Telemetry = reg
	_, addr := startServer(t, ServerConfig{Session: cfg, Telemetry: reg})

	cl, err := Dial(ClientConfig{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Detach()

	if err := cl.DispatchBatch(ctx, samples); err != nil {
		t.Fatal(err)
	}

	// Decode runs asynchronously behind the dispatch queue: poll the
	// RPC until the decode-layer histogram shows closed windows.
	var s telemetry.Snapshot
	deadline := time.Now().Add(10 * time.Second)
	for {
		if s, err = cl.Telemetry(ctx); err != nil {
			t.Fatalf("telemetry RPC: %v", err)
		}
		if s.Histograms["polardraw_decode_window_close_seconds"].Count > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("decode window-close histogram never filled: %+v", s.Histograms)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if h, ok := s.Histograms["polardraw_rpc_batch_samples"]; !ok || h.Count == 0 {
		t.Fatalf("rpc batch histogram missing or empty: %+v", s.Histograms)
	}
	if h, ok := s.Histograms[`polardraw_rpc_frame_bytes{dir="rx"}`]; !ok || h.Count == 0 {
		t.Fatalf("rpc rx frame histogram missing or empty: %+v", s.Histograms)
	}
}

// TestFilteredSubscription is the filter e2e: a subscriber narrowed
// to commit events for one pen receives only those, while an unfiltered
// peer on a second connection to the same shard sees the full stream.
func TestFilteredSubscription(t *testing.T) {
	samples, ants := penStreams(t, 2, 23)
	_, addr := startServer(t, ServerConfig{Session: sessionCfg(ants, 0.2, 4)})

	epcs := map[string]bool{}
	for _, smp := range samples {
		epcs[smp.EPC] = true
	}
	if len(epcs) != 2 {
		t.Fatalf("expected 2 pens, got %d", len(epcs))
	}
	var wantEPC string
	for epc := range epcs {
		if wantEPC == "" || epc < wantEPC {
			wantEPC = epc
		}
	}

	filtered, err := Dial(ClientConfig{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer filtered.Detach()
	peer, err := Dial(ClientConfig{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Detach()

	fevs, fcancel := filtered.SubscribeFiltered(ctx, session.SubscribeOptions{
		Kinds: []session.EventKind{session.EventCommit},
		EPCs:  []string{wantEPC},
	})
	defer fcancel()
	pevs, pcancel := peer.Subscribe(ctx)
	defer pcancel()

	writer, err := Dial(ClientConfig{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Detach()
	if err := writer.DispatchBatch(ctx, samples); err != nil {
		t.Fatal(err)
	}

	// The peer must see several event kinds; the filtered subscriber
	// only commits for its pen. Collect until both have evidence.
	deadline := time.After(10 * time.Second)
	var commits int
	peerKinds := map[session.EventKind]bool{}
	for commits == 0 || !peerKinds[session.EventPoint] || !peerKinds[session.EventCommit] {
		select {
		case ev := <-fevs:
			if ev.Kind != session.EventCommit {
				t.Fatalf("filtered subscriber saw kind %v, want only commits", ev.Kind)
			}
			if ev.EPC != wantEPC {
				t.Fatalf("filtered subscriber saw EPC %q, want only %q", ev.EPC, wantEPC)
			}
			commits++
		case ev := <-pevs:
			peerKinds[ev.Kind] = true
		case <-deadline:
			t.Fatalf("timed out: commits=%d peerKinds=%v", commits, peerKinds)
		}
	}
}

// TestHelloDefaultsEquivalence is the hello-defaults acceptance: decode
// defaults set on the client travel in the handshake and govern
// sessions opened implicitly by Dispatch, bit-identically to a local
// manager fed the same defaults — even though the server's own
// configuration differs.
func TestHelloDefaultsEquivalence(t *testing.T) {
	samples, ants := penStreams(t, 3, 41)
	topk, lag, window := 5, 8, 0.25
	defaults := session.OpenOptions{BeamTopK: &topk, CommitLag: &lag, Window: &window}

	// Server decodes with its own (different) defaults unless the
	// client's pushed options override them.
	_, addr := startServer(t, ServerConfig{Session: sessionCfg(ants, 0, 0)})
	cl, err := Dial(ClientConfig{Addr: addr, Defaults: defaults})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Detach()

	m := session.NewManager(sessionCfg(ants, 0, 0))
	if err := m.DispatchBatchWith(context.Background(), samples, defaults); err != nil {
		t.Fatal(err)
	}
	want := m.Close()

	if err := cl.DispatchBatch(ctx, samples); err != nil {
		t.Fatal(err)
	}
	got, err := cl.Close(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("remote decoded %d pens, local %d", len(got), len(want))
	}
	for epc, w := range want {
		g, ok := got[epc]
		if !ok {
			t.Fatalf("remote close missing EPC %s", epc)
		}
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("EPC %s: remote decode with hello defaults diverged from local DispatchWith", epc)
		}
	}

	// Sanity: the defaults changed the decode — the same stream through
	// the server's own configuration must differ.
	plain := session.NewManager(sessionCfg(ants, 0, 0))
	if err := plain.DispatchBatchWith(context.Background(), samples, session.OpenOptions{}); err != nil {
		t.Fatal(err)
	}
	base := plain.Close()
	same := true
	for epc, w := range want {
		if !reflect.DeepEqual(base[epc], w) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("hello defaults did not change the decode; equivalence check is vacuous")
	}
}
