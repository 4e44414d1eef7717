package session

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"polardraw/internal/core"
	"polardraw/internal/reader"
)

// ShardBackend is the transport-agnostic contract of one session-tier
// shard: something that accepts a mixed multi-pen sample stream,
// demultiplexes it into per-EPC tracking sessions, and can report or
// finalize them. Three implementations exist:
//
//   - LocalBackend: an in-process Manager; Dispatch enqueues straight
//     into the EPC's session queue.
//   - shardrpc.Client: the same contract spoken over a TCP connection
//     to a shard server process (shardrpc.Server), for multi-process
//     and multi-host deployments.
//   - Router: a rendezvous-hash fan-out over any mix of the above,
//     itself a ShardBackend so topologies compose.
//
// Every method takes a context.Context and honours its deadline and
// cancellation: an operation that would block — a Dispatch against a
// full session queue, any call against a dead remote — returns
// ctx.Err() promptly instead of hanging. Cancelling a call does not
// corrupt the backend; at worst the operation completes in the
// background (its outcome still reaches the event stream). Errors are
// drawn from the package taxonomy (ErrClosed, ErrUnknownEPC,
// ErrSessionLimit, ErrBackendUnavailable, core.ErrTooFewSamples) plus
// context errors, and remote backends round-trip the sentinels over
// the wire, so errors.Is behaves identically across transports.
//
// Implementations must preserve per-EPC dispatch order. Methods may be
// called concurrently.
type ShardBackend interface {
	// Open eagerly creates the EPC's session with per-session decode
	// options (see Manager.Open for the exact semantics: no silent
	// eviction, ErrSessionLimit at the cap, no-op for a live EPC).
	Open(ctx context.Context, epc string, opts OpenOptions) error
	// Dispatch routes one sample to its EPC's session.
	Dispatch(ctx context.Context, smp reader.Sample) error
	// DispatchBatch routes a batch (e.g. one RO_ACCESS_REPORT) in order.
	DispatchBatch(ctx context.Context, batch []reader.Sample) error
	// Finalize evicts one session and returns its decoded trajectory.
	Finalize(ctx context.Context, epc string) (*core.Result, error)
	// Stats snapshots every live session, sorted by EPC.
	Stats(ctx context.Context) ([]Stats, error)
	// EvictIdle finalizes sessions idle for at least maxIdle.
	EvictIdle(ctx context.Context, maxIdle time.Duration) (int, error)
	// Subscribe attaches a consumer to the backend's unified event
	// stream (see Event). Delivery is identical whichever transport
	// backs the stream; a slow consumer loses events rather than
	// stalling decode. Cancel (or ctx expiry) detaches and closes the
	// channel; the backend's Close also ends every subscription, so a
	// plain range over the channel terminates. In-process backends
	// deliver the close-time Evict events before the channel closes;
	// on a remote backend events racing the connection teardown may be
	// cut short.
	Subscribe(ctx context.Context) (<-chan Event, CancelFunc)
	// SubscribeFiltered is Subscribe narrowed by a kind/EPC allow-list
	// (see SubscribeOptions). The filter is enforced at the event
	// source — before buffering locally, before framing on a remote
	// transport — so a narrow subscription costs proportionally to what
	// it receives, not to the cluster's full event rate.
	SubscribeFiltered(ctx context.Context, opts SubscribeOptions) (<-chan Event, CancelFunc)
	// Export removes the EPC's live session and returns its serialized
	// mid-stroke state (a core.StreamTracker snapshot) for Restore on
	// another backend — the graceful half of a handoff. The snapshot
	// covers every sample dispatched to this backend for the EPC before
	// the call. ErrUnknownEPC when no session is live.
	Export(ctx context.Context, epc string) ([]byte, error)
	// Restore rebuilds the EPC's session from a snapshot produced by
	// Export or by a checkpoint event, replacing any live session for
	// the EPC. Samples dispatched after Restore continue the stroke
	// exactly where the snapshot left off.
	Restore(ctx context.Context, epc string, state []byte) error
	// Close stops ingress, finalizes every session, and returns
	// the decoded results keyed by EPC. Close is terminal.
	Close(ctx context.Context) (map[string]*core.Result, error)
}

// await runs fn off the calling goroutine and waits for it or for ctx,
// whichever finishes first — the bridge between the manager's blocking
// drain operations and the contract's prompt-cancellation guarantee.
// When ctx wins, fn keeps running to completion in the background (its
// effects, e.g. finalized sessions, still reach the event stream).
func await[T any](ctx context.Context, fn func() T) (T, error) {
	if err := ctx.Err(); err != nil {
		var zero T
		return zero, err
	}
	done := make(chan T, 1)
	go func() { done <- fn() }()
	select {
	case v := <-done:
		return v, nil
	case <-ctx.Done():
		var zero T
		return zero, ctx.Err()
	}
}

// DefaultShards is the in-process shard count NewLocalRouter builds
// when asked for none.
const DefaultShards = 4

// DefaultShardQueue was the depth of the ingress queue in-process
// shards once kept in front of their session queues. Nothing in this
// module uses it any more: it survives only because the serving
// benchmark (servebench) sizes its Finalize barrier with it, and goes
// with the next change to that benchmark.
const DefaultShardQueue = 1024

// LocalConfig parameterizes a LocalBackend.
type LocalConfig struct {
	// Session configures the backend's Manager.
	Session Config
}

// LocalBackend is the in-process ShardBackend: a Manager whose
// Dispatch enqueues straight into the EPC's session queue, so decode
// runs on the session's own worker goroutine and per-EPC order is the
// dispatch order.
type LocalBackend struct {
	m      *Manager
	closed atomic.Bool // Close ran; later calls return (nil, nil)
}

// NewLocalBackend builds an in-process backend with its own tracker;
// zero fields take defaults.
func NewLocalBackend(cfg LocalConfig) *LocalBackend {
	return newLocalBackendWith(cfg, core.New(cfg.Session.Tracker))
}

// newLocalBackendWith builds a backend around an existing tracker, so
// in-process shards share one precomputed HMM grid.
func newLocalBackendWith(cfg LocalConfig, tr *core.Tracker) *LocalBackend {
	return &LocalBackend{m: newManagerWith(cfg.Session, tr)}
}

// NewLocalRouter builds the single-process deployment: a Router over
// n LocalBackends named shard-0 … shard-(n-1) (DefaultShards when
// n <= 0) that share one core.Tracker, so the HMM grid is built once.
// It is the same router that fronts remote shardrpc backends; only the
// transport differs. Membership joins create further in-process shards
// on the same tracker. The shared tracker is returned alongside, for
// batch decodes on the shards' grid.
func NewLocalRouter(cfg Config, n int) (*Router, *core.Tracker) {
	if n <= 0 {
		n = DefaultShards
	}
	tr := core.New(cfg.Tracker)
	local := LocalConfig{Session: cfg}
	nbs := make([]NamedBackend, n)
	for i := range nbs {
		nbs[i] = NamedBackend{Name: fmt.Sprintf("shard-%d", i), Backend: newLocalBackendWith(local, tr)}
	}
	r := NewRouter(nbs)
	r.SetEventBuffer(cfg.EventBuffer)
	r.SetDialer(func(string, string) (ShardBackend, error) {
		return newLocalBackendWith(local, tr), nil
	})
	return r, tr
}

// Manager exposes the backend's session manager.
func (lb *LocalBackend) Manager() *Manager { return lb.m }

// Open eagerly creates the EPC's session with per-session options.
func (lb *LocalBackend) Open(ctx context.Context, epc string, opts OpenOptions) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return lb.m.Open(epc, opts)
}

// Dispatch enqueues one sample into its EPC's session queue. With
// Session.DropWhenFull unset it blocks while that queue is full,
// returning ctx.Err() if the context ends first.
func (lb *LocalBackend) Dispatch(ctx context.Context, smp reader.Sample) error {
	return lb.m.Dispatch(ctx, smp)
}

// DispatchBatch enqueues a batch in order.
func (lb *LocalBackend) DispatchBatch(ctx context.Context, batch []reader.Sample) error {
	return lb.m.DispatchBatch(ctx, batch)
}

// Finalize evicts one session and returns its decoded trajectory,
// which covers every sample dispatched before the call. If ctx ends
// while the session drains, Finalize returns ctx.Err() and the
// finalization completes in the background (the result still reaches
// the event stream).
func (lb *LocalBackend) Finalize(ctx context.Context, epc string) (*core.Result, error) {
	type out struct {
		res *core.Result
		err error
	}
	v, err := await(ctx, func() out {
		res, err := lb.m.Finalize(epc)
		return out{res, err}
	})
	if err != nil {
		return nil, err
	}
	return v.res, v.err
}

// Stats snapshots every live session, sorted by EPC. Local backends
// fail only on an already-ended context.
func (lb *LocalBackend) Stats(ctx context.Context) ([]Stats, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return lb.m.Stats(), nil
}

// Len returns the number of live sessions.
func (lb *LocalBackend) Len() int { return lb.m.Len() }

// EvictIdle finalizes every session idle for at least maxIdle. On ctx
// expiry the sweep continues in the background and ctx.Err() is
// returned.
func (lb *LocalBackend) EvictIdle(ctx context.Context, maxIdle time.Duration) (int, error) {
	return await(ctx, func() int { return lb.m.EvictIdle(maxIdle) })
}

// Subscribe attaches a consumer to the manager's unified event stream.
func (lb *LocalBackend) Subscribe(ctx context.Context) (<-chan Event, CancelFunc) {
	return lb.m.Subscribe(ctx)
}

// SubscribeFiltered is Subscribe narrowed by opts (see
// SubscribeOptions).
func (lb *LocalBackend) SubscribeFiltered(ctx context.Context, opts SubscribeOptions) (<-chan Event, CancelFunc) {
	return lb.m.SubscribeFiltered(ctx, opts)
}

// Export removes the EPC's session and returns its serialized state,
// which covers every sample dispatched before the call.
func (lb *LocalBackend) Export(ctx context.Context, epc string) ([]byte, error) {
	type out struct {
		state []byte
		err   error
	}
	v, err := await(ctx, func() out {
		state, err := lb.m.Export(epc)
		return out{state, err}
	})
	if err != nil {
		return nil, err
	}
	return v.state, v.err
}

// Restore rebuilds the EPC's session from a snapshot, replacing any
// live one.
func (lb *LocalBackend) Restore(ctx context.Context, epc string, state []byte) error {
	v, err := await(ctx, func() error { return lb.m.Restore(epc, state) })
	if err != nil {
		return err
	}
	return v
}

// EventsDropped counts events shed at full subscriber buffers.
func (lb *LocalBackend) EventsDropped() uint64 { return lb.m.EventsDropped() }

// Close finalizes all sessions and returns the decoded results keyed
// by EPC. Close is idempotent; later calls return (nil, nil). On ctx
// expiry the finalization keeps running in the background and
// ctx.Err() is returned.
func (lb *LocalBackend) Close(ctx context.Context) (map[string]*core.Result, error) {
	if lb.closed.Swap(true) {
		return nil, nil
	}
	// The close is already committed, so the finalization must run
	// regardless of ctx state (await's early exit would skip it).
	done := make(chan map[string]*core.Result, 1)
	go func() { done <- lb.m.Close() }()
	select {
	case res := <-done:
		return res, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Compile-time contract checks: every backend implements the
// context-aware ShardBackend.
var (
	_ ShardBackend = (*LocalBackend)(nil)
	_ ShardBackend = (*Router)(nil)
)
