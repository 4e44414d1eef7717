package shardrpc

import (
	"errors"
	"net"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"polardraw/internal/session"
)

// TestMembershipCodecRoundTrip pins the membership wire form:
// epoch, member list (name, addr, state) survive encode/decode
// exactly, oversized tables are rejected at encode time, and hostile
// member counts are rejected before allocation at decode time.
func TestMembershipCodecRoundTrip(t *testing.T) {
	m := session.Membership{
		Epoch: 42,
		Members: []session.Member{
			{Name: "shard-a", Addr: "10.0.0.1:7001", State: session.StateActive},
			{Name: "shard-b", Addr: "10.0.0.2:7001", State: session.StateDraining},
			{Name: "shard-c", Addr: "", State: session.StateSpare},
		},
	}
	var e enc
	if err := encodeMembership(&e, m); err != nil {
		t.Fatalf("encode: %v", err)
	}
	got := decodeMembership(&dec{b: e.b})
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, m)
	}

	// Oversized tables refuse to encode rather than truncating the u16.
	var big enc
	err := encodeMembership(&big, session.Membership{
		Epoch:   1,
		Members: make([]session.Member, 0x10000),
	})
	if err == nil {
		t.Fatal("encoding 65536 members succeeded, want error")
	}

	// A hostile count with no backing bytes must fail decode, not
	// allocate.
	var h enc
	h.u64(7)
	h.u16(0xffff)
	d := &dec{b: h.b}
	if got := decodeMembership(d); d.err == nil || len(got.Members) != 0 {
		t.Fatalf("hostile count decoded to %+v (err %v), want error", got, d.err)
	}
}

// TestMembershipEventRoundTrip checks EventMembership through the
// unified event codec used for the membership push.
func TestMembershipEventRoundTrip(t *testing.T) {
	ev := session.Event{
		Kind:  session.EventMembership,
		Epoch: 9,
		Members: []session.Member{
			{Name: "shard-a", Addr: "h:1", State: session.StateActive},
			{Name: "shard-b", Addr: "h:2", State: session.StateDraining},
		},
	}
	var e enc
	if err := encodeEvent(&e, ev); err != nil {
		t.Fatalf("encode: %v", err)
	}
	got := decodeEvent(&dec{b: e.b})
	if !reflect.DeepEqual(got, ev) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, ev)
	}
}

// TestV4ErrorCodesRoundTrip extends the error taxonomy check to the
// admission-shed and stale-membership-epoch sentinels: both must
// survive the wire as errors.Is-able values.
func TestV4ErrorCodesRoundTrip(t *testing.T) {
	for _, sentinel := range []error{session.ErrOverloaded, session.ErrStaleEpoch} {
		var e enc
		encodeError(&e, sentinel)
		d := &dec{b: e.b}
		if st := d.u8(); st != statusErr {
			t.Fatalf("status byte %d, want statusErr", st)
		}
		err := decodeError(d)
		if !errors.Is(err, sentinel) {
			t.Fatalf("decoded %v does not wrap %v", err, sentinel)
		}
	}
}

func waitForMembership(t *testing.T, evs <-chan Event) Event {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case ev, ok := <-evs:
			if !ok {
				t.Fatal("event stream closed before a membership push arrived")
			}
			if ev.Kind == session.EventMembership {
				return ev
			}
		case <-deadline:
			t.Fatal("timed out waiting for a membership push")
		}
	}
}

// TestMembershipPushStaleAndCatchUp is the membership e2e: a SetMembership
// from one client fans out to every subscribed client on the same
// shard, stale epochs are rejected with the typed sentinel, and a
// late subscriber catches up with the stored table immediately.
func TestMembershipPushStaleAndCatchUp(t *testing.T) {
	_, ants := penStreams(t, 1, 9)
	srv, addr := startServer(t, ServerConfig{Session: sessionCfg(ants, 0, 0)})

	a, err := Dial(ClientConfig{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Detach()
	b, err := Dial(ClientConfig{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Detach()

	evs, cancel := b.Subscribe(ctx)
	defer cancel()

	m1 := session.Membership{
		Epoch: 1,
		Members: []session.Member{
			{Name: "shard-0", Addr: addr, State: session.StateActive},
			{Name: "shard-1", Addr: "10.0.0.2:7001", State: session.StateDraining},
		},
	}
	if err := a.SetMembership(ctx, m1); err != nil {
		t.Fatalf("set membership: %v", err)
	}

	ev := waitForMembership(t, evs)
	if ev.Epoch != 1 || !reflect.DeepEqual(ev.Members, m1.Members) {
		t.Fatalf("pushed membership %+v, want epoch 1 with %+v", ev, m1.Members)
	}
	if got, ok := srv.Membership(); !ok || got.Epoch != 1 {
		t.Fatalf("server stored %+v (ok=%v), want epoch 1", got, ok)
	}

	// Replaying the same epoch — or anything older — is rejected with
	// the typed sentinel and leaves the table untouched.
	if err := a.SetMembership(ctx, m1); !errors.Is(err, session.ErrStaleEpoch) {
		t.Fatalf("stale epoch replay: %v, want ErrStaleEpoch", err)
	}
	if got, _ := srv.Membership(); got.Epoch != 1 {
		t.Fatalf("stale replay moved the epoch to %d", got.Epoch)
	}

	// A client that subscribes after the fact gets the stored table as
	// its first membership event (the subscribe catch-up).
	late, err := Dial(ClientConfig{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer late.Detach()
	lateEvs, lateCancel := late.Subscribe(ctx)
	defer lateCancel()
	if ev := waitForMembership(t, lateEvs); ev.Epoch != 1 || len(ev.Members) != 2 {
		t.Fatalf("late subscriber caught up with %+v, want epoch 1, 2 members", ev)
	}
}

// TestClientRedialBackoffSchedule drives ensureConnLocked with a
// scripted dialer and pins the jittered exponential schedule: the
// base gap doubles per consecutive failure up to the cap, each wait
// is a uniform point in [gap/2, gap], attempts inside the window are
// answered from the cached error without dialing, and one success
// resets the whole ladder.
func TestClientRedialBackoffSchedule(t *testing.T) {
	_, ants := penStreams(t, 1, 7)
	_, addr := startServer(t, ServerConfig{Session: sessionCfg(ants, 0, 0)})

	var down atomic.Bool
	var dials atomic.Int32
	injected := errors.New("injected dial failure")
	cl, err := Dial(ClientConfig{
		Addr:             addr,
		RedialBackoff:    10 * time.Millisecond,
		RedialBackoffMax: 80 * time.Millisecond,
		Dialer: func(a string, timeout time.Duration) (net.Conn, error) {
			dials.Add(1)
			if down.Load() {
				return nil, injected
			}
			return net.DialTimeout("tcp", a, timeout)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Detach()

	down.Store(true)
	cl.mu.Lock()
	defer cl.mu.Unlock()
	cl.teardownLocked(cl.gen.Load(), errors.New("test: connection lost"))

	want := []time.Duration{
		10 * time.Millisecond,
		20 * time.Millisecond,
		40 * time.Millisecond,
		80 * time.Millisecond,
		80 * time.Millisecond, // capped
	}
	for i, w := range want {
		cl.redialAt = time.Time{} // force a real attempt now
		err := cl.ensureConnLocked()
		if err == nil || !errors.Is(err, session.ErrBackendUnavailable) ||
			!strings.Contains(err.Error(), injected.Error()) {
			t.Fatalf("attempt %d: %v, want injected dial failure", i, err)
		}
		if cl.redialWait != w {
			t.Fatalf("attempt %d: backoff gap %v, want %v", i, cl.redialWait, w)
		}
		gap := time.Until(cl.redialAt)
		if gap > w || gap < w/2-2*time.Millisecond {
			t.Fatalf("attempt %d: jittered wait %v outside [%v, %v]", i, gap, w/2, w)
		}
	}

	// Inside the window the cached error comes back without a dial.
	before := dials.Load()
	if err := cl.ensureConnLocked(); err == nil ||
		!strings.Contains(err.Error(), injected.Error()) {
		t.Fatalf("gated attempt: %v, want cached injected failure", err)
	}
	if dials.Load() != before {
		t.Fatalf("attempt inside the backoff window dialed anyway")
	}

	// One success resets the ladder.
	down.Store(false)
	cl.redialAt = time.Time{}
	if err := cl.ensureConnLocked(); err != nil {
		t.Fatalf("recovery dial: %v", err)
	}
	if cl.redialWait != 0 || cl.lastDialErr != nil || !cl.redialAt.IsZero() {
		t.Fatalf("backoff state not reset after success: wait=%v err=%v at=%v",
			cl.redialWait, cl.lastDialErr, cl.redialAt)
	}
}
