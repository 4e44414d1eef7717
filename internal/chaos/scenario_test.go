package chaos

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"polardraw/internal/core"
	"polardraw/internal/font"
	"polardraw/internal/geom"
	"polardraw/internal/motion"
	"polardraw/internal/reader"
	"polardraw/internal/rf"
	"polardraw/internal/session"
	"polardraw/internal/tag"
)

// penStreams simulates n pens writing concurrently over one reader and
// returns the mixed time-ordered sample stream (the same harness the
// session suite uses; duplicated here because test helpers don't cross
// package boundaries).
func penStreams(t testing.TB, n int, seed uint64) ([]reader.Sample, [2]rf.Antenna) {
	t.Helper()
	rig := motion.DefaultRig()
	ants := rig.Antennas()
	ch := &rf.Channel{Reflectors: rf.OfficeReflectors(rig.BoardW)}
	tag.AD227(1).ApplyTo(ch)

	letters := []rune{'A', 'C', 'M', 'S', 'Z', 'O', 'W', 'H'}
	scenes := make([]reader.TaggedScene, 0, n)
	for k := 0; k < n; k++ {
		r := letters[k%len(letters)]
		g, ok := font.Lookup(r)
		if !ok {
			t.Fatalf("no glyph %c", r)
		}
		path := g.Path().Scale(0.18).Translate(geom.Vec2{X: 0.18, Y: 0.03})
		sess := motion.Write(path, string(r), motion.Config{Seed: seed + uint64(k)})
		epc := tag.AD227(uint32(k + 1)).EPC
		scenes = append(scenes, reader.TaggedScene{EPC: epc, Scene: sess})
	}
	rd := reader.New(reader.Config{Antennas: ants[:], Channel: ch, EPC: "", Seed: seed})
	return rd.MultiInventory(scenes), ants
}

// trackerCfg widens the window so six pens sharing one reader all
// stay above the per-antenna validity threshold (see the sharded
// suite). The batch reference must use the same config bit-for-bit.
func trackerCfg(ants [2]rf.Antenna) core.Config {
	return core.Config{Antennas: ants, Window: 0.2}
}

// localRouter builds a router over n in-process backends named
// shard-0..n-1 with a memory journal attached.
func localRouter(ants [2]rf.Antenna, n int) (*session.Router, []string) {
	names := make([]string, n)
	nbs := make([]session.NamedBackend, n)
	for i := range nbs {
		names[i] = fmt.Sprintf("shard-%d", i)
		nbs[i] = session.NamedBackend{
			Name: names[i],
			Backend: session.NewLocalBackend(session.LocalConfig{
				Session: session.Config{Tracker: trackerCfg(ants)},
			}),
		}
	}
	r := session.NewRouter(nbs)
	r.SetJournal(session.NewMemJournal(0))
	return r, names
}

// localDialer joins fresh in-process backends for membership adds.
func localDialer(ants [2]rf.Antenna) func(name, addr string) (session.ShardBackend, error) {
	return func(name, addr string) (session.ShardBackend, error) {
		return session.NewLocalBackend(session.LocalConfig{
			Session: session.Config{Tracker: trackerCfg(ants)},
		}), nil
	}
}

// assertIdentical requires that every pen's committed trajectory is
// bit-identical to batch-tracking that pen's own sub-stream — the
// zero-divergence bar every chaos scenario must clear.
func assertIdentical(t *testing.T, got map[string]*core.Result, samples []reader.Sample, ants [2]rf.Antenna) {
	t.Helper()
	perEPC := reader.SplitByEPC(samples)
	if len(got) != len(perEPC) {
		t.Fatalf("results for %d pens, want %d", len(got), len(perEPC))
	}
	batch := core.New(trackerCfg(ants))
	for epc, res := range got {
		want, err := batch.Track(perEPC[epc])
		if err != nil {
			t.Fatalf("batch track %s: %v", epc, err)
		}
		if !reflect.DeepEqual(res.Trajectory, want.Trajectory) {
			t.Fatalf("%s: committed trajectory diverged from the batch reference (%d vs %d points)",
				epc, len(res.Trajectory), len(want.Trajectory))
		}
	}
}

// active builds an all-active membership over the named backends.
func active(epoch uint64, names ...string) session.Membership {
	m := session.Membership{Epoch: epoch}
	for _, n := range names {
		m.Members = append(m.Members, session.Member{Name: n})
	}
	return m
}

// TestScenarioDrainUnderLoad removes a loaded shard mid-stroke via a
// membership epoch: every session it served must migrate and the final
// trajectories must match the batch reference exactly, with nothing
// lost and the emptied shard gone from the table.
func TestScenarioDrainUnderLoad(t *testing.T) {
	ctx := context.Background()
	samples, ants := penStreams(t, 6, 21)
	r, names := localRouter(ants, 3)

	half := len(samples) / 2
	for _, smp := range samples[:half] {
		if err := r.Dispatch(ctx, smp); err != nil {
			t.Fatal(err)
		}
	}

	// Remove the shard that owns the first pen — guaranteed loaded.
	victim := r.BackendFor(samples[0].EPC)
	var keep []string
	for _, n := range names {
		if n != victim {
			keep = append(keep, n)
		}
	}
	if err := r.ApplyMembership(ctx, active(2, keep...)); err != nil {
		t.Fatalf("drain epoch: %v", err)
	}
	for _, n := range r.Backends() {
		if n == victim {
			t.Fatalf("%s still in the table after its drain", victim)
		}
	}
	if r.Epoch() != 2 {
		t.Fatalf("epoch = %d, want 2", r.Epoch())
	}

	// The rest of the stroke flows to the migrated owners.
	for _, smp := range samples[half:] {
		if err := r.Dispatch(ctx, smp); err != nil {
			t.Fatal(err)
		}
	}
	results, err := r.Close(ctx)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, results, samples, ants)
}

// TestScenarioMembershipFlap joins and removes a shard repeatedly while
// pens keep writing, interleaving a stale epoch that must be rejected.
// Live strokes must never re-route without migration: the final
// trajectories are bit-identical to the reference.
func TestScenarioMembershipFlap(t *testing.T) {
	ctx := context.Background()
	samples, ants := penStreams(t, 6, 33)
	r, names := localRouter(ants, 2)
	r.SetDialer(localDialer(ants))

	base := active(0, names...).Members
	withJoiner := append(append([]session.Member(nil), base...), session.Member{Name: "shard-x"})

	chunk := len(samples) / 6
	epoch := uint64(1)
	for i := 0; i < 6; i++ {
		lo, hi := i*chunk, (i+1)*chunk
		if i == 5 {
			hi = len(samples)
		}
		for _, smp := range samples[lo:hi] {
			if err := r.Dispatch(ctx, smp); err != nil {
				t.Fatal(err)
			}
		}
		epoch++
		m := session.Membership{Epoch: epoch, Members: base}
		if i%2 == 0 {
			m.Members = withJoiner // flap in
		}
		if err := r.ApplyMembership(ctx, m); err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		// A replay of the previous epoch must bounce.
		stale := session.Membership{Epoch: epoch - 1, Members: base}
		if err := r.ApplyMembership(ctx, stale); !errors.Is(err, session.ErrStaleEpoch) {
			t.Fatalf("stale epoch accepted: %v", err)
		}
	}

	results, err := r.Close(ctx)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, results, samples, ants)
}

// TestScenarioPartitionDuringHandoff injects a one-shot restore
// failure into the drain path: the interrupted migration must roll the
// session back to its source (nothing lost, the leaver stays), and a
// later epoch must complete the drain and converge bit-identically.
func TestScenarioPartitionDuringHandoff(t *testing.T) {
	ctx := context.Background()
	samples, ants := penStreams(t, 4, 55)

	in := New(99, Rule{Op: OpRestore, Count: 1, Fault: Fault{Err: errors.New("injected partition")}})
	names := []string{"shard-0", "shard-1", "shard-2"}
	nbs := make([]session.NamedBackend, len(names))
	for i, n := range names {
		lb := session.NewLocalBackend(session.LocalConfig{
			Session: session.Config{Tracker: trackerCfg(ants)},
		})
		nbs[i] = session.NamedBackend{Name: n, Backend: Wrap(lb, in)}
	}
	r := session.NewRouter(nbs)
	r.SetJournal(session.NewMemJournal(0))

	half := len(samples) / 2
	for _, smp := range samples[:half] {
		if err := r.Dispatch(ctx, smp); err != nil {
			t.Fatal(err)
		}
	}

	victim := r.BackendFor(samples[0].EPC)
	var keep []string
	for _, n := range names {
		if n != victim {
			keep = append(keep, n)
		}
	}

	// First removal attempt: one migration hits the partition, rolls
	// back, and the leaver refuses to go while it still owns sessions.
	err := r.ApplyMembership(ctx, active(2, keep...))
	if err == nil {
		t.Fatal("drain succeeded through the injected partition")
	}
	if !strings.Contains(err.Error(), "injected partition") {
		t.Fatalf("drain error does not carry the injected fault: %v", err)
	}
	if in.Fired() != 1 {
		t.Fatalf("injector fired %d times, want 1", in.Fired())
	}
	found := false
	for _, n := range r.Backends() {
		found = found || n == victim
	}
	if !found {
		t.Fatalf("%s removed despite its failed drain", victim)
	}

	// The stroke keeps flowing (rolled back to the source) and a later
	// epoch completes the drain.
	mid := half + (len(samples)-half)/2
	for _, smp := range samples[half:mid] {
		if err := r.Dispatch(ctx, smp); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.ApplyMembership(ctx, active(3, keep...)); err != nil {
		t.Fatalf("retry epoch: %v", err)
	}
	for _, n := range r.Backends() {
		if n == victim {
			t.Fatalf("%s still in the table after the retried drain", victim)
		}
	}
	for _, smp := range samples[mid:] {
		if err := r.Dispatch(ctx, smp); err != nil {
			t.Fatal(err)
		}
	}

	results, err := r.Close(ctx)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, results, samples, ants)
}

// TestScenarioOverloadSheds drives the router well past its admission
// budget and checks the contract: excess samples shed with the typed
// ErrOverloaded (never queued, never journaled), shed counts match,
// and admitted samples all reach a backend.
func TestScenarioOverloadSheds(t *testing.T) {
	ctx := context.Background()
	samples, ants := penStreams(t, 4, 77)
	r, _ := localRouter(ants, 2)
	r.SetAdmission(session.AdmissionConfig{Rate: 200, Burst: 32})

	var shed, okCount uint64
	for _, smp := range samples {
		err := r.Dispatch(ctx, smp)
		switch {
		case err == nil:
			okCount++
		case errors.Is(err, session.ErrOverloaded):
			shed++
		default:
			t.Fatalf("unexpected dispatch error: %v", err)
		}
	}
	if shed == 0 {
		t.Fatal("no samples shed at 2x+ capacity")
	}
	if r.Shed() != shed {
		t.Fatalf("router Shed() = %d, want %d", r.Shed(), shed)
	}
	var dispatched uint64
	for _, h := range r.Health() {
		dispatched += h.Dispatched
		if h.Shed == 0 && h.Dispatched == 0 {
			continue
		}
	}
	if dispatched != okCount {
		t.Fatalf("backends saw %d dispatches, want %d admitted", dispatched, okCount)
	}
	if _, err := r.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestScenarioStallShedsNotBlocks scripts a dispatch stall and checks
// the injected latency honors context cancellation rather than hanging
// the caller.
func TestScenarioStallShedsNotBlocks(t *testing.T) {
	in := New(7, Rule{Op: OpDispatch, Count: 1, Fault: Fault{Stall: 10 * time.Second}})
	_, ants := penStreams(t, 1, 3)
	lb := session.NewLocalBackend(session.LocalConfig{
		Session: session.Config{Tracker: trackerCfg(ants)},
	})
	cb := Wrap(lb, in)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := cb.Dispatch(ctx, reader.Sample{EPC: "pen-1", T: 1})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stalled dispatch returned %v, want deadline exceeded", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("stall ignored the context")
	}
	if _, err := cb.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// wrappedRouter builds a journaled router over in-process backends
// named shard-0..n-1 that checkpoint every 2 windows, each behind its
// own fault injector chosen by faults(name).
func wrappedRouter(ants [2]rf.Antenna, n int, faults func(name string) *Injector) (*session.Router, session.Journal, []string) {
	names := make([]string, n)
	nbs := make([]session.NamedBackend, n)
	for i := range nbs {
		names[i] = fmt.Sprintf("shard-%d", i)
		lb := session.NewLocalBackend(session.LocalConfig{
			Session: session.Config{Tracker: trackerCfg(ants), CheckpointEvery: 2},
		})
		nbs[i] = session.NamedBackend{Name: names[i], Backend: Wrap(lb, faults(names[i]))}
	}
	r := session.NewRouter(nbs)
	j := session.NewMemJournal(0)
	r.SetJournal(j)
	return r, j, names
}

// waitCheckpoints waits until the journal holds a checkpoint for every
// EPC, so a journal rebuild starts with a Restore.
func waitCheckpoints(t *testing.T, j session.Journal, epcs []string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for _, epc := range epcs {
		for state, _ := j.Checkpoint(epc); state == nil; state, _ = j.Checkpoint(epc) {
			if time.Now().After(deadline) {
				t.Fatalf("no checkpoint journaled for %s", epc)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestScenarioDrainExportFaultReported drains a member whose first
// Export fails, so its session must be rebuilt on the target from the
// journal, and fails that rebuild's Restore once. The drain must report
// the fault, not claim the member drained; a later epoch completes the
// drain and every trajectory stays bit-identical.
func TestScenarioDrainExportFaultReported(t *testing.T) {
	ctx := context.Background()
	samples, ants := penStreams(t, 4, 61)
	perEPC := reader.SplitByEPC(samples)

	// Rendezvous depends on names only: a backend-less router finds the
	// first pen's owner before the faults are wired.
	probe := session.NewRouter([]session.NamedBackend{{Name: "shard-0"}, {Name: "shard-1"}, {Name: "shard-2"}})
	victim := probe.BackendFor(samples[0].EPC)
	exportFault := New(5, Rule{Op: OpExport, Count: 1, Fault: Fault{Err: errors.New("injected export fault")}})
	restoreFault := New(6, Rule{Op: OpRestore, Count: 1, Fault: Fault{Err: errors.New("injected restore fault")}})
	r, j, names := wrappedRouter(ants, 3, func(name string) *Injector {
		if name == victim {
			return exportFault
		}
		return restoreFault
	})

	half := len(samples) / 2
	for _, smp := range samples[:half] {
		if err := r.Dispatch(ctx, smp); err != nil {
			t.Fatal(err)
		}
	}
	var owned []string
	for epc := range perEPC {
		if r.BackendFor(epc) == victim {
			owned = append(owned, epc)
		}
	}
	waitCheckpoints(t, j, owned)

	draining := func(epoch uint64) session.Membership {
		m := active(epoch, names...)
		for i := range m.Members {
			if m.Members[i].Name == victim {
				m.Members[i].State = session.StateDraining
			}
		}
		return m
	}
	err := r.ApplyMembership(ctx, draining(2))
	if err == nil || !strings.Contains(err.Error(), "injected restore fault") {
		t.Fatalf("drain through a failed journal rebuild returned %v, want the injected fault", err)
	}
	if exportFault.Fired() != 1 || restoreFault.Fired() != 1 {
		t.Fatalf("faults fired export=%d restore=%d, want 1 each", exportFault.Fired(), restoreFault.Fired())
	}

	mid := half + (len(samples)-half)/2
	for _, smp := range samples[half:mid] {
		if err := r.Dispatch(ctx, smp); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.ApplyMembership(ctx, draining(3)); err != nil {
		t.Fatalf("retry epoch: %v", err)
	}
	for epc := range perEPC {
		if r.BackendFor(epc) == victim {
			t.Fatalf("%s still routes to %s after the retried drain", epc, victim)
		}
	}
	for _, smp := range samples[mid:] {
		if err := r.Dispatch(ctx, smp); err != nil {
			t.Fatal(err)
		}
	}
	results, err := r.Close(ctx)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, results, samples, ants)
}

// TestScenarioHandoffExportFaultRebuilds hands off a session whose
// owner fails to export it: the handoff must rebuild the stroke on the
// target from the journal (checkpoint plus tail) and pin it there, and
// the finalized trajectories stay bit-identical. The old owner must not
// keep a copy: once the rebuilt stroke is finalized the EPC routes back
// to it, and a second stroke for the same EPC must decode from scratch
// there, in Close's results and in its Close-time Evict event.
func TestScenarioHandoffExportFaultRebuilds(t *testing.T) {
	ctx := context.Background()
	samples, ants := penStreams(t, 3, 67)
	perEPC := reader.SplitByEPC(samples)
	in := New(9, Rule{Op: OpExport, Count: 1, Fault: Fault{Err: errors.New("injected export fault")}})
	r, j, names := wrappedRouter(ants, 2, func(string) *Injector { return in })
	evicts, cancel := r.SubscribeFiltered(ctx, session.SubscribeOptions{Kinds: []session.EventKind{session.EventEvict}})
	defer cancel()

	half := len(samples) / 2
	for _, smp := range samples[:half] {
		if err := r.Dispatch(ctx, smp); err != nil {
			t.Fatal(err)
		}
	}
	epc := samples[0].EPC
	waitCheckpoints(t, j, []string{epc})
	from := r.BackendFor(epc)
	to := names[0]
	if from == to {
		to = names[1]
	}
	if err := r.Handoff(ctx, epc, to); err != nil {
		t.Fatalf("handoff from a failed export: %v", err)
	}
	if in.Fired() != 1 {
		t.Fatalf("export fault fired %d times, want 1", in.Fired())
	}
	if got := r.BackendFor(epc); got != to {
		t.Fatalf("after handoff %s routes to %s, want %s", epc, got, to)
	}
	for _, smp := range samples[half:] {
		if err := r.Dispatch(ctx, smp); err != nil {
			t.Fatal(err)
		}
	}
	first, err := r.Finalize(ctx, epc)
	if err != nil {
		t.Fatalf("finalize %s: %v", epc, err)
	}
	assertIdentical(t, map[string]*core.Result{epc: first}, perEPC[epc], ants)
	if got := r.BackendFor(epc); got != from {
		t.Fatalf("after finalize %s routes to %s, want its rendezvous owner %s", epc, got, from)
	}
	// A second stroke for the same EPC, on the old owner: the first
	// stroke's samples again, later in time, so a stale half-stroke left
	// on the old owner would absorb them and diverge.
	shift := perEPC[epc][len(perEPC[epc])-1].T + 1
	var want []reader.Sample
	for e, ss := range perEPC {
		if e != epc {
			want = append(want, ss...)
		}
	}
	for _, smp := range perEPC[epc] {
		smp.T += shift
		want = append(want, smp)
	}
	if err := r.DispatchBatch(ctx, want[len(want)-len(perEPC[epc]):]); err != nil {
		t.Fatal(err)
	}
	results, err := r.Close(ctx)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, results, want, ants)

	// Each EPC's last Evict is its Close-time decode, the second stroke's
	// for epc. (The first stroke's Evict may be suppressed: Finalize
	// unpins the EPC before the forwarder sees it.)
	last := map[string]*core.Result{}
	for ev := range evicts {
		if ev.Err != nil {
			t.Fatalf("evict %s: %v", ev.EPC, ev.Err)
		}
		last[ev.EPC] = ev.Result
	}
	assertIdentical(t, last, want, ants)
}
