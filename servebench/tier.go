package main

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"polardraw"
	"polardraw/internal/core"
	"polardraw/internal/reader"
	"polardraw/internal/session"
	"polardraw/internal/shardrpc"
	"polardraw/internal/telemetry"
)

// tier is the serving surface a workload drives. *polardraw.Client
// implements it for the untraced run; tracedTier implements it over
// the same layers composed from the internal constructors.
type tier interface {
	DispatchBatch(ctx context.Context, batch []polardraw.Sample) error
	Finalize(ctx context.Context, epc string) (*polardraw.Result, error)
	Handoff(ctx context.Context, epc, backend string) error
	SubscribeFiltered(ctx context.Context, opts polardraw.SubscribeOptions) (<-chan polardraw.Event, polardraw.CancelFunc)
	Backends() []string
	BackendFor(epc string) string
	EventsDropped() uint64
	SamplesShed() uint64
	Close(ctx context.Context) (map[string]*polardraw.Result, error)
}

// stack is one opened serving stack plus the handles the benchmark
// reads its counters through.
type stack struct {
	t tier
	// lost counts samples the wire gave up on (zero in process).
	lost func() uint64
	// live counts live sessions across every shard.
	live func() int
	// stop shuts down whatever Close does not (shard servers).
	stop func()
	// The traced composition only: its top, the client-side and shard
	// server registries, and the wire reconnect count.
	traced    *tracedTier
	tel       *telemetry.Registry
	serverTel []*telemetry.Registry
	redials   func() uint64
}

// openOpts are the Open options every workload shares: the rig, a
// session cap no workload reaches (so LRU eviction never finalizes a
// live stroke), and a subscriber buffer deep enough that the
// benchmark's own consumer never sheds.
func openOpts(in *inputs) []polardraw.Option {
	return []polardraw.Option{
		polardraw.WithAntennas(in.ants),
		polardraw.WithMaxSessions(maxSessions),
		polardraw.WithEventBuffer(eventBuffer),
	}
}

// eventBuffer sizes every subscriber channel: about a second of every
// event kind on the open loops, more than the closed loop's outstanding
// window can leave undelivered, so a consumer stall shows as latency,
// not as dropped events.
const eventBuffer = 1 << 12

// startServers starts n in-process shard servers on loopback. When
// count is set, each listener is wrapped so the bytes crossing the
// wire are counted.
func startServers(ctx context.Context, in *inputs, n int, count *wireCount) ([]*polardraw.ShardServer, []string, error) {
	var srvs []*polardraw.ShardServer
	var addrs []string
	for i := 0; i < n; i++ {
		var lc net.ListenConfig
		ln, err := lc.Listen(ctx, "tcp", "127.0.0.1:0")
		if err != nil {
			for _, s := range srvs {
				s.Close()
			}
			return nil, nil, fmt.Errorf("listen: %w", err)
		}
		if count != nil {
			ln = &countingListener{Listener: ln, c: count}
		}
		srv := polardraw.NewShardServer(
			polardraw.WithAntennas(in.ants),
			polardraw.WithCheckpointEvery(checkpointEvery),
			polardraw.WithEventBuffer(eventBuffer),
		)
		go func() { _ = srv.Serve(ln) }()
		srvs = append(srvs, srv)
		addrs = append(addrs, ln.Addr().String())
	}
	return srvs, addrs, nil
}

// openStack opens the workload's serving stack through the public API.
func openStack(ctx context.Context, in *inputs, w *workload) (*stack, error) {
	opts := openOpts(in)
	if !w.remote {
		c, err := polardraw.Open(ctx, append(opts, polardraw.WithShards(shards))...)
		if err != nil {
			return nil, err
		}
		return &stack{
			t:    c,
			lost: c.SamplesLost,
			live: func() int { n, _ := c.Len(context.Background()); return n },
			stop: func() {},
		}, nil
	}
	srvs, addrs, err := startServers(ctx, in, shards, nil)
	if err != nil {
		return nil, err
	}
	stopSrvs := func() {
		for _, s := range srvs {
			s.Close()
		}
	}
	c, err := polardraw.Open(ctx, append(opts,
		polardraw.WithShardServers(addrs...),
		polardraw.WithJournal(polardraw.NewMemJournal(0)),
	)...)
	if err != nil {
		stopSrvs()
		return nil, err
	}
	return &stack{t: c, lost: c.SamplesLost, live: serversLive(srvs), stop: stopSrvs}, nil
}

func serversLive(srvs []*polardraw.ShardServer) func() int {
	return func() int {
		n := 0
		for _, s := range srvs {
			n += s.Manager().Len()
		}
		return n
	}
}

// openTracedStack composes the same layers polardraw.Open wires up —
// a session.Router over named ShardBackends, with the journal, event
// buffer, admission and telemetry settings Open applies — but built
// from the internal constructors so timing decorators can sit on the
// ShardBackend and Journal interfaces and on the shard servers'
// listeners. Two differences from Open remain: in process, each
// NewLocalBackend builds its own core.Tracker (grid and stencil cache)
// where Open's ShardedManager shares one across shards; and the
// decorators hide the optional transport interfaces the router probes
// for (heartbeat pings, failover abandon, membership detach), none of
// which these workloads use.
func openTracedStack(ctx context.Context, in *inputs, w *workload) (*stack, error) {
	tel := telemetry.NewRegistry()
	tr := newTracer()
	tt := &tracedTier{tr: tr}
	st := &stack{tel: tel, traced: tt, stop: func() {}}
	var nbs []session.NamedBackend
	if !w.remote {
		var locals []*session.LocalBackend
		for i := 0; i < shards; i++ {
			lb := session.NewLocalBackend(session.LocalConfig{Session: session.Config{
				Tracker:     in.cfg,
				MaxSessions: maxSessions,
				EventBuffer: eventBuffer,
				Telemetry:   tel,
			}})
			locals = append(locals, lb)
			nbs = append(nbs, session.NamedBackend{
				Name:    fmt.Sprintf("shard-%d", i),
				Backend: &timedBackend{ShardBackend: lb, tr: tr},
			})
		}
		st.live = func() int {
			n := 0
			for _, lb := range locals {
				n += lb.Len()
			}
			return n
		}
		st.lost = func() uint64 { return 0 }
		st.redials = func() uint64 { return 0 }
	} else {
		tt.wire = &wireCount{}
		srvs, addrs, err := startServers(ctx, in, shards, tt.wire)
		if err != nil {
			return nil, err
		}
		st.stop = func() {
			for _, s := range srvs {
				s.Close()
			}
		}
		var rcs []*shardrpc.Client
		for _, addr := range addrs {
			rc, err := shardrpc.Dial(shardrpc.ClientConfig{
				Addr:        addr,
				EventBuffer: eventBuffer,
				Telemetry:   tel,
			})
			if err != nil {
				for _, rc := range rcs {
					_, _ = rc.Close(context.Background())
				}
				st.stop()
				return nil, fmt.Errorf("dial %s: %w", addr, err)
			}
			rcs = append(rcs, rc)
			nbs = append(nbs, session.NamedBackend{
				Name:    addr,
				Backend: &timedBackend{ShardBackend: rc, tr: tr},
			})
		}
		for _, s := range srvs {
			st.serverTel = append(st.serverTel, s.Telemetry())
		}
		st.live = serversLive(srvs)
		st.lost = func() uint64 {
			var n uint64
			for _, rc := range rcs {
				n += rc.Lost()
			}
			return n
		}
		st.redials = func() uint64 {
			var n uint64
			for _, rc := range rcs {
				n += rc.Reconnects()
			}
			return n
		}
	}
	r := session.NewRouter(nbs)
	r.SetEventBuffer(eventBuffer)
	if w.remote {
		tt.journal = &timedJournal{Journal: session.NewMemJournal(0), tt: tt}
		r.SetJournal(tt.journal)
	}
	r.SetAdmission(session.AdmissionConfig{})
	r.SetTelemetry(tel)
	tt.Router = r
	st.t = tt
	return st, nil
}

// Span names: one per layer boundary the benchmark decorates.
const (
	spanRouterDispatch    = iota // tier → Router.DispatchBatch
	spanRouterFinalize           // tier → Router.Finalize
	spanRouterHandoff            // tier → Router.Handoff
	spanBackendDispatch          // Router → ShardBackend.DispatchBatch
	spanBackendFinalize          // Router → ShardBackend.Finalize
	spanBackendExport            // Router → ShardBackend.Export
	spanBackendRestore           // Router → ShardBackend.Restore
	spanJournalAppend            // Router → Journal.Append
	spanJournalCheckpoint        // Router → Journal.SaveCheckpoint
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"router.dispatch_batch", "router.finalize", "router.handoff",
	"backend.dispatch_batch", "backend.finalize", "backend.export", "backend.restore",
	"journal.append", "journal.save_checkpoint",
}

// span is one timed call at a layer boundary. Times are nanoseconds
// since the tracer started; parent 0 means a root span; stroke is the
// EPC of a per-stroke call and empty for a multi-pen report.
type span struct {
	id, parent int64
	name       int
	start, end int64
	stroke     string
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	base   time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

type spanKey struct{}

// begin opens a span under the parent carried by ctx (if any) and
// returns the context children should see.
func (t *tracer) begin(ctx context.Context, name int, stroke string) (context.Context, span) {
	s := span{id: t.nextID.Add(1), name: name, stroke: stroke}
	if p, ok := ctx.Value(spanKey{}).(int64); ok {
		s.parent = p
	}
	s.start = t.now()
	return context.WithValue(ctx, spanKey{}, s.id), s
}

func (t *tracer) end(s span) {
	s.end = t.now()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// tracedTier is the traced composition's top: the router, with a span
// around every call the workload makes into it.
type tracedTier struct {
	*session.Router
	tr      *tracer
	journal *timedJournal
	wire    *wireCount
	// dispatching is the open router.dispatch_batch span: journal
	// appends, which carry no context, happen only inside it, on the
	// single dispatching goroutine.
	dispatching atomic.Int64
}

func (tt *tracedTier) DispatchBatch(ctx context.Context, batch []reader.Sample) error {
	ctx, s := tt.tr.begin(ctx, spanRouterDispatch, "")
	tt.dispatching.Store(s.id)
	err := tt.Router.DispatchBatch(ctx, batch)
	tt.dispatching.Store(0)
	tt.tr.end(s)
	return err
}

func (tt *tracedTier) Finalize(ctx context.Context, epc string) (*core.Result, error) {
	ctx, s := tt.tr.begin(ctx, spanRouterFinalize, epc)
	res, err := tt.Router.Finalize(ctx, epc)
	tt.tr.end(s)
	return res, err
}

func (tt *tracedTier) Handoff(ctx context.Context, epc, backend string) error {
	ctx, s := tt.tr.begin(ctx, spanRouterHandoff, epc)
	err := tt.Router.Handoff(ctx, epc, backend)
	tt.tr.end(s)
	return err
}

// SamplesShed matches polardraw.Client's name for Router.Shed.
func (tt *tracedTier) SamplesShed() uint64 { return tt.Router.Shed() }

// timedBackend records a span per data-path call into one shard
// backend.
type timedBackend struct {
	session.ShardBackend
	tr *tracer
}

func (b *timedBackend) DispatchBatch(ctx context.Context, batch []reader.Sample) error {
	ctx, s := b.tr.begin(ctx, spanBackendDispatch, "")
	err := b.ShardBackend.DispatchBatch(ctx, batch)
	b.tr.end(s)
	return err
}

func (b *timedBackend) Finalize(ctx context.Context, epc string) (*core.Result, error) {
	ctx, s := b.tr.begin(ctx, spanBackendFinalize, epc)
	res, err := b.ShardBackend.Finalize(ctx, epc)
	b.tr.end(s)
	return res, err
}

func (b *timedBackend) Export(ctx context.Context, epc string) ([]byte, error) {
	ctx, s := b.tr.begin(ctx, spanBackendExport, epc)
	state, err := b.ShardBackend.Export(ctx, epc)
	b.tr.end(s)
	return state, err
}

func (b *timedBackend) Restore(ctx context.Context, epc string, state []byte) error {
	ctx, s := b.tr.begin(ctx, spanBackendRestore, epc)
	err := b.ShardBackend.Restore(ctx, epc, state)
	b.tr.end(s)
	return err
}

// timedJournal records a span per append and checkpoint save.
type timedJournal struct {
	session.Journal
	tt *tracedTier
}

func (j *timedJournal) Append(smp reader.Sample) (int, error) {
	s := span{id: j.tt.tr.nextID.Add(1), name: spanJournalAppend,
		parent: j.tt.dispatching.Load(), stroke: smp.EPC, start: j.tt.tr.now()}
	n, err := j.Journal.Append(smp)
	j.tt.tr.end(s)
	return n, err
}

func (j *timedJournal) SaveCheckpoint(epc string, covered int, state []byte) error {
	s := span{id: j.tt.tr.nextID.Add(1), name: spanJournalCheckpoint,
		stroke: epc, start: j.tt.tr.now()}
	err := j.Journal.SaveCheckpoint(epc, covered, state)
	j.tt.tr.end(s)
	return err
}

// wireCount totals the bytes shard servers read (client→server) and
// write (server→client).
type wireCount struct{ toServer, toClient atomic.Int64 }

type countingListener struct {
	net.Listener
	c *wireCount
}

func (l *countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: conn, c: l.c}, nil
}

type countingConn struct {
	net.Conn
	c *wireCount
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.c.toServer.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.c.toClient.Add(int64(n))
	return n, err
}
