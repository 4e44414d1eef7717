package main

import (
	"context"
	"reflect"
	"testing"
	"time"

	"polardraw"
)

// The TestReproduce* tests reproduce the defects NOTES.md records.
// They report what they measure with t.Log instead of failing on it:
// the workloads are designed around these defects, and a fix should
// show up here as a zero. Run them with
//
//	go test -run Reproduce -v
//
// from this directory.

func reproInputs(t *testing.T, n int) *inputs {
	t.Helper()
	in, err := makeInputs(5, n)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// dispatchStroke sends samples[lo:hi] of a stroke in 16-read reports.
func dispatchStroke(ctx context.Context, t *testing.T, c *polardraw.Client, epc string, s *stroke, lo, hi int) {
	t.Helper()
	for i := lo; i < hi; i += 16 {
		var batch []polardraw.Sample
		for _, smp := range s.samples[i:min(i+16, hi)] {
			smp.EPC = epc
			batch = append(batch, smp)
		}
		if err := c.DispatchBatch(ctx, batch); err != nil {
			t.Fatal(err)
		}
	}
}

// countEvents drains ch until it closes and returns the count per EPC.
func countEvents(ch <-chan polardraw.Event) <-chan map[string]int {
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

// Defect a: in process, Finalize does not wait for the EPC's reads
// still in the shard's ingress queue, so a stroke finalized right
// after its last read comes back truncated and its tail re-opens an
// orphan session.
func TestReproduceFinalizeSkipsIngress(t *testing.T) {
	ctx := context.Background()
	in := reproInputs(t, 16)
	c, err := polardraw.Open(ctx, polardraw.WithAntennas(in.ants), polardraw.WithShards(1),
		polardraw.WithMaxSessions(1024))
	if err != nil {
		t.Fatal(err)
	}
	truncated := 0
	for i, s := range in.strokes {
		dispatchStroke(ctx, t, c, epcOf(i), s, 0, len(s.samples))
		res, err := c.Finalize(ctx, epcOf(i))
		if err != nil || !reflect.DeepEqual(res, s.ref) {
			truncated++
		}
	}
	orphans, err := c.Close(ctx)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("defect a: %d of %d strokes finalized with no pen-up gap came back truncated; "+
		"%d orphan sessions were finalized at Close", truncated, len(in.strokes), len(orphans))
}

// Defect b: over the wire, DispatchBatch returns once reads are
// buffered for sending, not once the shard has taken them, so an
// unpaced sender's dispatch rate says nothing about the decode rate.
func TestReproduceRemoteDispatchOutrunsDecode(t *testing.T) {
	ctx := context.Background()
	in := reproInputs(t, 32)
	srvs, addrs, err := startServers(ctx, in, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srvs[0].Close()
	c, err := polardraw.Open(ctx, polardraw.WithAntennas(in.ants), polardraw.WithShardServers(addrs...),
		polardraw.WithEventBuffer(eventBuffer))
	if err != nil {
		t.Fatal(err)
	}
	events, cancel := c.SubscribeFiltered(ctx, polardraw.SubscribeOptions{
		Kinds: []polardraw.EventKind{polardraw.EventPoint}})
	defer cancel()
	want, samples := 0, 0
	for _, s := range in.strokes {
		want += len(s.closeIdx)
		samples += len(s.samples)
	}
	start := time.Now()
	for i, s := range in.strokes {
		dispatchStroke(ctx, t, c, epcOf(i), s, 0, len(s.samples))
	}
	dispatched := time.Since(start)
	for got := 0; got < want; got++ {
		select {
		case <-events:
		case <-time.After(30 * time.Second):
			t.Fatalf("only %d of %d point events arrived", got, want)
		}
	}
	decoded := time.Since(start)
	if _, err := c.Close(ctx); err != nil {
		t.Fatal(err)
	}
	t.Logf("defect b: %d reads dispatched in %v (%.0f reads/s) but decoded in %v (%.0f reads/s)",
		samples, dispatched, float64(samples)/dispatched.Seconds(), decoded, float64(samples)/decoded.Seconds())
}

// Defect c: over the wire, the evict events Close emits can be cut
// short by the connection teardown. The reads are paced on their point
// events, so the connection never deadlocks (defect e).
func TestReproduceRemoteCloseCutsEvents(t *testing.T) {
	ctx := context.Background()
	in := reproInputs(t, 32)
	srvs, addrs, err := startServers(ctx, in, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srvs[0].Close()
	c, err := polardraw.Open(ctx, polardraw.WithAntennas(in.ants), polardraw.WithShardServers(addrs...),
		polardraw.WithEventBuffer(eventBuffer))
	if err != nil {
		t.Fatal(err)
	}
	points, cancelPoints := c.SubscribeFiltered(ctx, polardraw.SubscribeOptions{
		Kinds: []polardraw.EventKind{polardraw.EventPoint}})
	defer cancelPoints()
	evicts, cancelEvicts := c.SubscribeFiltered(ctx, polardraw.SubscribeOptions{
		Kinds: []polardraw.EventKind{polardraw.EventEvict}})
	defer cancelEvicts()
	counted := countEvents(evicts)
	const pens = 256
	for i := 0; i < pens; i++ {
		s := in.strokes[i%len(in.strokes)]
		dispatchStroke(ctx, t, c, epcOf(i), s, 0, len(s.samples))
		for range s.closeIdx {
			select {
			case <-points:
			case <-time.After(30 * time.Second):
				t.Fatalf("stroke %d: point events stopped arriving", i)
			}
		}
	}
	results, err := c.Close(ctx)
	if err != nil {
		t.Fatal(err)
	}
	got := <-counted
	t.Logf("defect c: Close finalized %d strokes; %d of their evict events arrived", len(results), len(got))
}

// Defect e: over the wire, an unpaced sender deadlocks the connection.
// The client holds its mutex while a write blocks on a full socket;
// its read loop needs that mutex, so it stops reading; the server's
// read loop then blocks writing acks to a client that no longer reads,
// and stops reading too. It takes event traffic from the server, as a
// subscriber causes. The test gives the dispatch 20 s, then aborts the
// shard server to release it.
func TestReproduceRemoteUnpacedDeadlock(t *testing.T) {
	ctx := context.Background()
	in := reproInputs(t, 32)
	srvs, addrs, err := startServers(ctx, in, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := polardraw.Open(ctx, polardraw.WithAntennas(in.ants), polardraw.WithShardServers(addrs...))
	if err != nil {
		t.Fatal(err)
	}
	// A subscriber makes the server stream events back, as a live-ink
	// consumer does.
	events, cancelEvents := c.Subscribe(ctx)
	defer cancelEvents()
	drained := countEvents(events)
	const pens = 256
	sent := make(chan int, 1)
	go func() {
		n := 0
		for i := 0; i < pens; i++ {
			s := in.strokes[i%len(in.strokes)]
			for lo := 0; lo < len(s.samples); lo += 16 {
				var batch []polardraw.Sample
				for _, smp := range s.samples[lo:min(lo+16, len(s.samples))] {
					smp.EPC = epcOf(i)
					batch = append(batch, smp)
				}
				if c.DispatchBatch(ctx, batch) != nil {
					sent <- n
					return
				}
				n += len(batch)
			}
		}
		sent <- n
	}()
	select {
	case n := <-sent:
		t.Logf("defect e: not reproduced: %d reads of %d strokes sent unpaced without a deadlock", n, pens)
	case <-time.After(20 * time.Second):
		srvs[0].Abort()
		n := <-sent
		t.Logf("defect e: unpaced dispatch of %d strokes deadlocked after %d reads; released by aborting the server", pens, n)
	}
	closeCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	_, _ = c.Close(closeCtx) // the server may be gone
	srvs[0].Close()
	cancelEvents()
	<-drained
}

// Defect d: Handoff drops the point events the old owner published
// just before the export, because the router forwards a backend's
// events only while that backend still owns the EPC.
func TestReproduceHandoffDropsPoints(t *testing.T) {
	ctx := context.Background()
	in := reproInputs(t, 16)
	c, err := polardraw.Open(ctx, polardraw.WithAntennas(in.ants), polardraw.WithShards(2),
		polardraw.WithMaxSessions(1024), polardraw.WithEventBuffer(eventBuffer))
	if err != nil {
		t.Fatal(err)
	}
	events, cancel := c.SubscribeFiltered(ctx, polardraw.SubscribeOptions{
		Kinds: []polardraw.EventKind{polardraw.EventPoint}})
	defer cancel()
	counted := countEvents(events)
	want := 0
	for i, s := range in.strokes {
		epc := epcOf(i)
		half := len(s.samples) / 2
		dispatchStroke(ctx, t, c, epc, s, 0, half)
		to := c.Backends()[0]
		if c.BackendFor(epc) == to {
			to = c.Backends()[1]
		}
		if err := c.Handoff(ctx, epc, to); err != nil {
			t.Fatal(err)
		}
		dispatchStroke(ctx, t, c, epc, s, half, len(s.samples))
		time.Sleep(50 * time.Millisecond) // past defect a
		res, err := c.Finalize(ctx, epc)
		if err != nil || !reflect.DeepEqual(res, s.ref) {
			t.Fatalf("stroke %d: handed-off trajectory differs from the reference (err %v)", i, err)
		}
		want += len(s.ref.Windows)
	}
	if _, err := c.Close(ctx); err != nil {
		t.Fatal(err)
	}
	got := 0
	for _, n := range <-counted {
		got += n
	}
	t.Logf("defect d: %d handed-off strokes decoded bit-identically, but %d of their %d point events never arrived",
		len(in.strokes), want-got, want)
}
