package session

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"polardraw/internal/core"
	"polardraw/internal/reader"
	"polardraw/internal/telemetry"
)

func (s *stubBackend) setFail(err error) {
	s.mu.Lock()
	s.fail = err
	s.mu.Unlock()
}

func (s *stubBackend) samples() []reader.Sample {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]reader.Sample(nil), s.got...)
}

// epcOwnedBy finds an EPC whose rendezvous winner is the named backend.
func epcOwnedBy(t *testing.T, r *Router, name string) string {
	t.Helper()
	for i := 0; i < 1000; i++ {
		epc := "pen-" + string(rune('a'+i%26)) + "-" + time.Duration(i).String()
		if r.BackendFor(epc) == name {
			return epc
		}
	}
	t.Fatalf("no EPC maps to %s", name)
	return ""
}

// waitFor polls until cond holds or the deadline expires.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// tripDown feeds the backend enough consecutive failures to cross the
// hysteresis threshold via its own EPC (so the samples land in the
// journal for the failover to replay).
func tripDown(ctx context.Context, t *testing.T, r *Router, epc string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := r.Dispatch(ctx, reader.Sample{EPC: epc, T: 100 + float64(i)}); err == nil {
			t.Fatal("dispatch to a failing backend succeeded")
		}
	}
}

// TestRouterFailoverReplaysJournal is the crash path: the EPC's owner
// dies mid-stroke, and the journal-backed failover replays every
// dispatched sample — including the ones the dead backend never
// acknowledged — to the healthy runner-up, then pins the route there.
func TestRouterFailoverReplaysJournal(t *testing.T) {
	ctx := context.Background()
	nbs, stubs := namedStubs("a:1", "b:1")
	r := NewRouter(nbs)
	r.SetJournal(NewMemJournal(0))

	epc := epcOwnedBy(t, r, "a:1")
	var want []reader.Sample
	for i := 0; i < 5; i++ {
		smp := reader.Sample{EPC: epc, T: float64(i)}
		want = append(want, smp)
		if err := r.Dispatch(ctx, smp); err != nil {
			t.Fatal(err)
		}
	}

	// The owner dies: every call fails until the streak trips the
	// hysteresis and the down-transition fires the failover.
	stubs["a:1"].setFail(errors.New("shard down"))
	for i := 0; i < unhealthyAfter; i++ {
		smp := reader.Sample{EPC: epc, T: 100 + float64(i)}
		want = append(want, smp)
		if err := r.Dispatch(ctx, smp); err == nil {
			t.Fatal("dispatch to the dead owner succeeded")
		}
	}

	waitFor(t, "failover override", func() bool { return r.BackendFor(epc) == "b:1" })

	// Post-failover traffic flows to the survivor.
	tail := reader.Sample{EPC: epc, T: 999}
	want = append(want, tail)
	if err := r.Dispatch(ctx, tail); err != nil {
		t.Fatal(err)
	}
	if got := stubs["b:1"].samples(); !reflect.DeepEqual(got, want) {
		t.Fatalf("survivor saw %d samples, want the full journaled stroke (%d):\n got %v\nwant %v",
			len(got), len(want), got, want)
	}
	if lost := r.Journal().Lost(); lost != 0 {
		t.Fatalf("journal lost = %d across a failover", lost)
	}
}

// TestRouterFailoverFromCheckpoint: with a checkpoint in the journal,
// failover restores the snapshot and replays only the tail past it.
func TestRouterFailoverFromCheckpoint(t *testing.T) {
	ctx := context.Background()
	nbs, stubs := namedStubs("a:1", "b:1")
	r := NewRouter(nbs)
	j := NewMemJournal(0)
	r.SetJournal(j)

	epc := epcOwnedBy(t, r, "a:1")
	for i := 0; i < 8; i++ {
		if err := r.Dispatch(ctx, reader.Sample{EPC: epc, T: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	state := []byte("ckpt-covering-6")
	if err := j.SaveCheckpoint(epc, 6, state); err != nil {
		t.Fatal(err)
	}

	stubs["a:1"].setFail(errors.New("shard down"))
	tripDown(ctx, t, r, epc, unhealthyAfter)
	waitFor(t, "failover override", func() bool { return r.BackendFor(epc) == "b:1" })

	b := stubs["b:1"]
	b.mu.Lock()
	restored := b.restored[epc]
	b.mu.Unlock()
	if !reflect.DeepEqual(restored, state) {
		t.Fatalf("survivor restored %q, want the checkpoint", restored)
	}
	got := b.samples()
	// Tail = indices 6,7 of the stroke plus the tripDown samples.
	if len(got) != 2+unhealthyAfter || got[0].T != 6 || got[1].T != 7 {
		t.Fatalf("replayed tail = %v, want samples 6..7 then the failed ones", got)
	}
}

// TestRouterHandoffGraceful: the maintenance path — export from the
// live owner, restore on the target, pin the route — with no samples
// in flight and no crash.
func TestRouterHandoffGraceful(t *testing.T) {
	ctx := context.Background()
	nbs, stubs := namedStubs("a:1", "b:1")
	r := NewRouter(nbs)
	r.SetJournal(NewMemJournal(0))

	epc := epcOwnedBy(t, r, "a:1")
	if err := r.Dispatch(ctx, reader.Sample{EPC: epc, T: 1}); err != nil {
		t.Fatal(err)
	}
	if err := r.Handoff(ctx, epc, "b:1"); err != nil {
		t.Fatal(err)
	}
	if got := r.BackendFor(epc); got != "b:1" {
		t.Fatalf("after handoff EPC routes to %s", got)
	}
	b := stubs["b:1"]
	b.mu.Lock()
	restored := string(b.restored[epc])
	b.mu.Unlock()
	if restored != "state:"+epc {
		t.Fatalf("target restored %q, want the owner's export", restored)
	}
	// A handoff to the current owner is a no-op; an unknown target is an
	// error.
	if err := r.Handoff(ctx, epc, "b:1"); err != nil {
		t.Fatalf("handoff to current owner: %v", err)
	}
	if err := r.Handoff(ctx, epc, "nope"); err == nil {
		t.Fatal("handoff to unknown backend succeeded")
	}
	// Traffic follows the pin.
	if err := r.Dispatch(ctx, reader.Sample{EPC: epc, T: 2}); err != nil {
		t.Fatal(err)
	}
	if got := b.samples(); got[len(got)-1].T != 2 {
		t.Fatalf("post-handoff dispatch went elsewhere: %v", got)
	}
	if got := stubs["a:1"].samples(); len(got) != 1 {
		t.Fatalf("old owner kept receiving: %v", got)
	}
}

// TestRouterEnsureRoutable: a brand-new stroke whose rendezvous winner
// is down must never send its first sample into the dead shard — the
// journal-backed router pins it to the healthy runner-up up front.
func TestRouterEnsureRoutable(t *testing.T) {
	ctx := context.Background()
	nbs, stubs := namedStubs("a:1", "b:1")
	r := NewRouter(nbs)
	r.SetJournal(NewMemJournal(0))

	downEPC := epcOwnedBy(t, r, "a:1")
	stubs["a:1"].setFail(errors.New("shard down"))
	tripDown(ctx, t, r, downEPC, unhealthyAfter)
	waitFor(t, "a:1 unhealthy", func() bool { h, _ := r.HealthCounts(); return h == 1 })

	fresh := epcOwnedBy(t, r, "b:1") // any name; we need one that WOULD map to a:1
	for i := 0; i < 1000; i++ {
		epc := "fresh-" + time.Duration(i).String()
		if r.backendFor(epc).name == "a:1" {
			fresh = epc
			break
		}
	}
	if err := r.Dispatch(ctx, reader.Sample{EPC: fresh, T: 1}); err != nil {
		t.Fatalf("first sample of a fresh stroke hit the dead shard: %v", err)
	}
	if got := r.BackendFor(fresh); got != "b:1" {
		t.Fatalf("fresh stroke routed to %s", got)
	}
	for _, smp := range stubs["a:1"].samples() {
		if smp.EPC == fresh {
			t.Fatal("dead shard received the fresh stroke")
		}
	}
}

// TestRouterNoJournalNeverMoves: without a journal health is advisory —
// an unhealthy winner keeps its EPCs (mapping stability over failover),
// exactly the pre-durability contract.
func TestRouterNoJournalNeverMoves(t *testing.T) {
	ctx := context.Background()
	nbs, stubs := namedStubs("a:1", "b:1")
	r := NewRouter(nbs)

	epc := epcOwnedBy(t, r, "a:1")
	stubs["a:1"].setFail(errors.New("shard down"))
	for i := 0; i < unhealthyAfter+2; i++ {
		if err := r.Dispatch(ctx, reader.Sample{EPC: epc, T: float64(i)}); err == nil {
			t.Fatal("dispatch to a failing backend succeeded")
		}
	}
	if h, u := r.HealthCounts(); h != 1 || u != 1 {
		t.Fatalf("health = %d/%d, want 1 healthy 1 unhealthy", h, u)
	}
	// Still routed to the dead winner; the survivor saw nothing.
	if got := r.BackendFor(epc); got != "a:1" {
		t.Fatalf("journal-less router moved the EPC to %s", got)
	}
	if got := stubs["b:1"].samples(); len(got) != 0 {
		t.Fatalf("journal-less router replayed %d samples", len(got))
	}
}

// TestManagerCheckpointRestoreBitIdentical is the tentpole invariant
// at the session layer: periodic checkpoints must not perturb the
// decode, and a fresh manager restored from any checkpoint and fed the
// remaining samples must finalize bit-identically to the uninterrupted
// run.
func TestManagerCheckpointRestoreBitIdentical(t *testing.T) {
	samples, _, ants := penStreams(t, 1, 43)
	epc := samples[0].EPC
	base := Config{Tracker: core.Config{Antennas: ants, Window: 0.2, CommitLag: 8}}

	m1 := NewManager(base)
	for _, s := range samples {
		if err := m1.Dispatch(context.Background(), s); err != nil {
			t.Fatal(err)
		}
	}
	want, err := m1.Finalize(epc)
	if err != nil {
		t.Fatal(err)
	}

	ck := base
	ck.CheckpointEvery = 4 // windows, not samples: cut a few per stroke
	m2 := NewManager(ck)
	ch, cancel := m2.Subscribe(context.Background())
	defer cancel()
	var mu sync.Mutex
	var covered int
	var state []byte
	go func() {
		for ev := range ch {
			if ev.Kind == EventCheckpoint && ev.EPC == epc {
				mu.Lock()
				covered, state = int(ev.Covered), append([]byte(nil), ev.State...)
				mu.Unlock()
			}
		}
	}()
	for _, s := range samples {
		if err := m2.Dispatch(context.Background(), s); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "a checkpoint event", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return state != nil
	})
	got2, err := m2.Finalize(epc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got2, want) {
		t.Fatal("checkpointing perturbed the decode")
	}

	mu.Lock()
	cov, st := covered, append([]byte(nil), state...)
	mu.Unlock()
	if cov <= 0 || cov >= len(samples) {
		t.Fatalf("checkpoint covered %d of %d samples — no mid-stroke cut", cov, len(samples))
	}
	m3 := NewManager(base)
	if err := m3.Restore(epc, st); err != nil {
		t.Fatal(err)
	}
	for _, s := range samples[cov:] {
		if err := m3.Dispatch(context.Background(), s); err != nil {
			t.Fatal(err)
		}
	}
	got3, err := m3.Finalize(epc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got3, want) {
		t.Fatal("restore-from-checkpoint decode diverged from the uninterrupted run")
	}
}

// TestRouterFinalizeReleasesJournal: a decided finalize drops the
// stroke from the journal and clears any failover pin, so the WAL
// cannot grow without bound across strokes.
func TestRouterFinalizeReleasesJournal(t *testing.T) {
	ctx := context.Background()
	nbs, stubs := namedStubs("a:1", "b:1")
	r := NewRouter(nbs)
	j := NewMemJournal(0)
	r.SetJournal(j)

	epc := epcOwnedBy(t, r, "a:1")
	stubs["a:1"].finalize = map[string]*core.Result{epc: {}}
	for i := 0; i < 4; i++ {
		if err := r.Dispatch(ctx, reader.Sample{EPC: epc, T: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := j.EPCs(); len(got) != 1 {
		t.Fatalf("journal EPCs = %v", got)
	}
	if _, err := r.Finalize(ctx, epc); err != nil {
		t.Fatal(err)
	}
	if got := j.EPCs(); len(got) != 0 {
		t.Fatalf("journal still holds %v after finalize", got)
	}
}

// TestRouterMigrationsCounter pins what polardraw_router_migrations_total
// counts: every completed session move, whichever path made it — one
// Handoff, one EPC drained off a draining member by export, and one
// EPC rebuilt from the journal by a failover read 3.
func TestRouterMigrationsCounter(t *testing.T) {
	ctx := context.Background()
	nbs, stubs := namedStubs("a:1", "b:1", "c:1")
	r := NewRouter(nbs)
	r.SetJournal(NewMemJournal(0))
	reg := telemetry.NewRegistry()
	r.SetTelemetry(reg)
	migrations := func() int64 { return reg.Snapshot().Counters["polardraw_router_migrations_total"] }

	handed := epcOwnedBy(t, r, "a:1")
	drained := epcOwnedBy(t, r, "c:1")
	var failed string
	for i := 0; i < 1000 && failed == ""; i++ {
		if epc := "failed-" + time.Duration(i).String(); r.BackendFor(epc) == "a:1" && epc != handed {
			failed = epc
		}
	}
	for _, epc := range []string{handed, drained, failed} {
		if err := r.Dispatch(ctx, reader.Sample{EPC: epc, T: 1}); err != nil {
			t.Fatal(err)
		}
	}

	if err := r.Handoff(ctx, handed, "b:1"); err != nil {
		t.Fatal(err)
	}
	if got := migrations(); got != 1 {
		t.Fatalf("after a Handoff migrations = %d, want 1", got)
	}
	m := Membership{Epoch: 1, Members: []Member{{Name: "a:1"}, {Name: "b:1"}, {Name: "c:1", State: StateDraining}}}
	if err := r.ApplyMembership(ctx, m); err != nil {
		t.Fatal(err)
	}
	// b:1 (not a:1, which fails over next) must be the drain target, so
	// the failover below moves exactly one EPC.
	if got := r.BackendFor(drained); got != "b:1" {
		t.Fatalf("drained EPC routes to %s, want b:1", got)
	}
	if got := migrations(); got != 2 {
		t.Fatalf("after a drain migrations = %d, want 2", got)
	}
	stubs["a:1"].setFail(errors.New("shard down"))
	tripDown(ctx, t, r, failed, unhealthyAfter)
	waitFor(t, "failover override", func() bool { return r.BackendFor(failed) == "b:1" })
	if got := migrations(); got != 3 {
		t.Fatalf("after a failover migrations = %d, want 3", got)
	}
}

// TestRouterHandoffUnknownEPC: handing off an EPC with no live session
// and nothing journaled reports the owner's ErrUnknownEPC and moves
// nothing.
func TestRouterHandoffUnknownEPC(t *testing.T) {
	ctx := context.Background()
	_, _, ants := penStreams(t, 1, 5)
	r, _ := NewLocalRouter(Config{Tracker: core.Config{Antennas: ants}}, 2)
	r.SetJournal(NewMemJournal(0))
	defer r.Close(ctx)

	const epc = "never-dispatched"
	owner := r.BackendFor(epc)
	to := r.Backends()[0]
	if to == owner {
		to = r.Backends()[1]
	}
	if err := r.Handoff(ctx, epc, to); !errors.Is(err, ErrUnknownEPC) {
		t.Fatalf("handoff of an unknown EPC returned %v, want ErrUnknownEPC", err)
	}
	if got := r.BackendFor(epc); got != owner {
		t.Fatalf("after a failed handoff %s routes to %s, want %s", epc, got, owner)
	}
}
