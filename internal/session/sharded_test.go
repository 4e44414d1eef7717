package session

import (
	"context"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"polardraw/internal/core"
	"polardraw/internal/reader"
)

// liveSessions counts the tier's live sessions, as polardraw's
// Client.Len does in process.
func liveSessions(r *Router) int {
	st, _ := r.Stats(context.Background())
	return len(st)
}

// TestShardedDemuxMatchesBatch pushes a mixed multi-pen stream through
// the sharded tier and requires, per EPC, exactly the batch-track
// result for that EPC's sub-stream — the same contract the flat
// Manager honours, now across shards.
func TestShardedDemuxMatchesBatch(t *testing.T) {
	const pens = 6
	samples, _, ants := penStreams(t, pens, 9)
	// 6 pens share the reader, so widen the window to keep every pen's
	// dual-antenna read rate above the validity threshold.
	sm, batchTr := NewLocalRouter(Config{Tracker: core.Config{Antennas: ants, Window: 0.2}}, 3)
	if got := len(sm.Backends()); got != 3 {
		t.Fatalf("shards = %d, want 3", got)
	}
	if err := sm.DispatchBatch(context.Background(), samples); err != nil {
		t.Fatal(err)
	}
	results, err := sm.Close(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != pens {
		t.Fatalf("results = %d, want %d", len(results), pens)
	}

	perEPC := reader.SplitByEPC(samples)
	for epc, res := range results {
		want, err := batchTr.Track(perEPC[epc])
		if err != nil {
			t.Fatalf("batch track %s: %v", epc, err)
		}
		if len(res.Trajectory) != len(want.Trajectory) {
			t.Fatalf("%s: trajectory %d points, want %d",
				epc, len(res.Trajectory), len(want.Trajectory))
		}
		for i := range want.Trajectory {
			if math.Abs(res.Trajectory[i].X-want.Trajectory[i].X) > 1e-9 ||
				math.Abs(res.Trajectory[i].Y-want.Trajectory[i].Y) > 1e-9 {
				t.Fatalf("%s: trajectory[%d] = %+v, want %+v",
					epc, i, res.Trajectory[i], want.Trajectory[i])
			}
		}
	}

	if err := sm.Dispatch(context.Background(), samples[0]); err != ErrClosed {
		t.Fatalf("dispatch after close: %v, want ErrClosed", err)
	}
	if res, _ := sm.Close(context.Background()); res != nil {
		t.Fatal("second Close should return nil")
	}
}

// TestShardedStatsAndEviction checks the merged views: Len and Stats
// span shards, stats stay sorted, and idle eviction reaches every
// shard.
func TestShardedStatsAndEviction(t *testing.T) {
	const pens = 5
	samples, _, ants := penStreams(t, pens, 11)
	sm, _ := NewLocalRouter(Config{Tracker: core.Config{Antennas: ants}}, 4)
	evicts := countEvicts(sm)
	if err := sm.DispatchBatch(context.Background(), samples); err != nil {
		t.Fatal(err)
	}
	// Dispatch enqueues straight into the sessions: every one exists
	// once DispatchBatch returns.
	if n := liveSessions(sm); n != pens {
		t.Fatalf("sessions = %d, want %d", n, pens)
	}
	st, err := sm.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(st) != pens {
		t.Fatalf("stats = %d, want %d", len(st), pens)
	}
	for i := 1; i < len(st); i++ {
		if st[i-1].EPC >= st[i].EPC {
			t.Fatalf("stats unsorted at %d: %s >= %s", i, st[i-1].EPC, st[i].EPC)
		}
	}
	if n, _ := sm.EvictIdle(context.Background(), 0); n != pens {
		t.Fatalf("evicted %d, want %d", n, pens)
	}
	if n := liveSessions(sm); n != 0 {
		t.Fatalf("sessions after eviction = %d", n)
	}
	sm.Close(context.Background())
	got := 0
	for _, n := range <-evicts {
		got += n
	}
	if got != pens {
		t.Fatalf("Evict fired %d times, want %d", got, pens)
	}
}

// countEvicts subscribes to sm's Evict events and, once Close ends the
// subscription, delivers how many arrived per EPC.
func countEvicts(sm *Router) <-chan map[string]int {
	ch, _ := sm.SubscribeFiltered(context.Background(), SubscribeOptions{Kinds: []EventKind{EventEvict}})
	out := make(chan map[string]int, 1)
	go func() {
		n := map[string]int{}
		for ev := range ch {
			n[ev.EPC]++
		}
		out <- n
	}()
	return out
}

// TestShardedJoinLeaveRace exercises the sharded tier under the
// conditions the race detector cares about: many pens dispatched
// concurrently from separate goroutines, pens leaving mid-stream via
// Finalize, late pens joining after others finished, and a
// mid-traffic Stats/Len/EvictIdle poller.
func TestShardedJoinLeaveRace(t *testing.T) {
	const pens = 8
	samples, _, ants := penStreams(t, pens, 13)
	perEPC := reader.SplitByEPC(samples)
	if len(perEPC) != pens {
		t.Fatalf("scenario produced %d EPCs, want %d", len(perEPC), pens)
	}
	sm, _ := NewLocalRouter(Config{Tracker: core.Config{Antennas: ants, Window: 0.3}}, 3)
	evicts := countEvicts(sm)

	epcs := make([]string, 0, pens)
	for epc := range perEPC {
		epcs = append(epcs, epc)
	}

	var wg sync.WaitGroup
	// Each pen streams from its own goroutine (per-EPC order is the
	// per-goroutine dispatch order). Half the pens join late.
	for i, epc := range epcs {
		wg.Add(1)
		go func(i int, epc string) {
			defer wg.Done()
			if i%2 == 1 {
				time.Sleep(5 * time.Millisecond) // late joiner
			}
			for _, smp := range perEPC[epc] {
				if err := sm.Dispatch(context.Background(), smp); err != nil {
					t.Errorf("dispatch %s: %v", epc, err)
					return
				}
			}
			if i%3 == 0 {
				// Leave mid-stream from the pen's own goroutine.
				sm.Finalize(context.Background(), epc)
			}
		}(i, epc)
	}
	// A metrics poller races the dispatchers.
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				liveSessions(sm)
				sm.Stats(context.Background())
				sm.EvictIdle(context.Background(), time.Minute)
				sm.Health()
				time.Sleep(time.Millisecond)
			}
		}
	}()
	// Wait for dispatchers (all but the poller).
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	go func() {
		// Poller stops once dispatchers are done; give them a beat.
		time.Sleep(50 * time.Millisecond)
		close(stop)
	}()
	<-done

	sm.Close(context.Background())
	finalized := <-evicts
	for _, epc := range epcs {
		if finalized[epc] == 0 {
			t.Errorf("EPC %s never got an Evict event", epc)
		}
	}
}

// TestShardStability checks that an EPC always routes to the same
// shard (the property per-EPC ordering rests on).
func TestShardStability(t *testing.T) {
	sm, _ := NewLocalRouter(Config{}, 7)
	defer sm.Close(context.Background())
	for _, epc := range []string{"", "a", "E280-1160-6000-0001", "pen-042"} {
		s0 := sm.BackendFor(epc)
		for i := 0; i < 10; i++ {
			if sm.BackendFor(epc) != s0 {
				t.Fatalf("EPC %q moved shards", epc)
			}
		}
	}
}

// TestLocalFinalizeCoversDispatched is the regression test for a local
// Finalize that returned a truncated stroke while the stroke's last
// reads still sat in a per-shard ingress queue (and then re-opened an
// orphan session from them). Each pen's stroke is dispatched whole in
// 16-read reports and finalized the moment its last DispatchBatch
// returns, with no pause: the result must equal a single-threaded
// decode of the same stroke, and Close must find nothing left to
// finalize.
func TestLocalFinalizeCoversDispatched(t *testing.T) {
	const pens = 8
	ctx := context.Background()
	samples, _, ants := penStreams(t, pens, 31)
	cfg := core.Config{Antennas: ants, Window: 0.3, BeamTopK: core.DefaultBeamTopK, CommitLag: core.DefaultCommitLag}
	r, tr := NewLocalRouter(Config{Tracker: cfg}, 1)
	evicts := countEvicts(r)

	perEPC := reader.SplitByEPC(samples)
	truncated := 0
	for epc, stroke := range perEPC {
		st := tr.Stream()
		if err := st.Push(stroke...); err != nil {
			t.Fatal(err)
		}
		want, err := st.Finalize()
		if err != nil {
			t.Fatalf("reference decode %s: %v", epc, err)
		}
		for lo := 0; lo < len(stroke); lo += 16 {
			if err := r.DispatchBatch(ctx, stroke[lo:min(lo+16, len(stroke))]); err != nil {
				t.Fatal(err)
			}
		}
		got, err := r.Finalize(ctx, epc)
		if err != nil || !reflect.DeepEqual(got, want) {
			truncated++
		}
	}
	orphans, err := r.Close(ctx)
	if err != nil {
		t.Fatal(err)
	}
	finalized := <-evicts
	notOnce := 0
	for epc := range perEPC {
		if finalized[epc] != 1 {
			notOnce++
		}
	}
	if truncated != 0 || len(orphans) != 0 || notOnce != 0 {
		t.Fatalf("%d of %d strokes finalized right after dispatch differ from the reference; "+
			"%d orphan sessions decoded at Close; %d pens not evicted exactly once",
			truncated, pens, len(orphans), notOnce)
	}
}
