package shardrpc

import (
	"bytes"
	"errors"
	"testing"

	"polardraw/internal/core"
	"polardraw/internal/geom"
	"polardraw/internal/reader"
	"polardraw/internal/session"
	"polardraw/internal/telemetry"
)

// TestMinStatsWirePinsEncoder ties minStatsWire to encodeStats: the
// client's Stats count sanity check divides by it, so it must track
// the encoder's minimum record size exactly. Growing or shrinking the
// Stats payload without updating the constant fails here instead of
// silently weakening the allocation guard or rejecting valid
// responses.
func TestMinStatsWirePinsEncoder(t *testing.T) {
	var e enc
	if err := encodeStats(&e, session.Stats{}); err != nil {
		t.Fatal(err)
	}
	if len(e.b) != minStatsWire {
		t.Fatalf("minimum encoded Stats record is %d bytes, minStatsWire = %d: update both together",
			len(e.b), minStatsWire)
	}
}

// fuzzSeedFrames returns one well-formed frame per decoded payload
// kind, the starting corpus for FuzzFrameDecoders.
func fuzzSeedFrames(t testing.TB) [][]byte {
	k, lag, win := 192, 8, 0.2
	frame := func(op byte, build func(e *enc) error) []byte {
		var e enc
		if err := build(&e); err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := writeFrame(&b, op, e.b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	smp := reader.Sample{T: 1.5, Antenna: 1, RSS: -52, Phase: 2.1, EPC: "pen-1"}
	res := &core.Result{
		Trajectory: geom.Polyline{{X: 0.1, Y: 0.2}, {X: 0.3, Y: 0.4}},
		Windows:    []core.Window{{T: 0.2, Valid: true}},
	}
	m := session.Membership{Epoch: 3, Members: []session.Member{{Name: "a", Addr: "127.0.0.1:1"}}}
	reg := telemetry.NewRegistry()
	reg.Counter("c").Add(2)
	reg.Histogram("h").Observe(0.5)
	seeds := [][]byte{
		frame(opHello, func(e *enc) error {
			return encodeHello(e, "client", session.OpenOptions{BeamTopK: &k, CommitLag: &lag, Window: &win})
		}),
		frame(opDispatchSeq, func(e *enc) error {
			e.u64(7)
			return encodeSamples(e, []reader.Sample{smp, smp})
		}),
		frame(opOpen, func(e *enc) error {
			encodeOpenOptions(e, session.OpenOptions{BeamTopK: &k})
			return nil
		}),
		frame(opSubscribe, func(e *enc) error {
			return encodeSubscribeOptions(e, session.SubscribeOptions{
				Kinds: []session.EventKind{session.EventPoint}, EPCs: []string{"pen-1"}})
		}),
		frame(opMembership, func(e *enc) error { return encodeMembership(e, m) }),
		frame(opResp, func(e *enc) error {
			e.u8(statusOK)
			return encodeTelemetry(e, reg.Snapshot())
		}),
		frame(opResp, func(e *enc) error {
			encodeError(e, session.ErrStaleEpoch)
			return nil
		}),
	}
	for _, ev := range []session.Event{
		{Kind: session.EventPoint, EPC: "pen-1", Window: res.Windows[0]},
		{Kind: session.EventCommit, EPC: "pen-1", CommitStart: 2, Segment: res.Trajectory},
		{Kind: session.EventEvict, EPC: "pen-1", Result: res},
		{Kind: session.EventEvict, EPC: "pen-1", Err: core.ErrTooFewSamples},
		{Kind: session.EventCheckpoint, EPC: "pen-1", Covered: 9, State: []byte{1, 2, 3}},
		{Kind: session.EventMembership, Epoch: m.Epoch, Members: m.Members},
	} {
		seeds = append(seeds, frame(opEvent, func(e *enc) error { return encodeEvent(e, ev) }))
	}
	return seeds
}

// FuzzFrameDecoders feeds arbitrary bytes to readFrame and then to the
// payload decoder for the frame's opcode: hello, samples, open and
// subscribe options, membership, events, and for responses the error
// and telemetry bodies. Every decoder must fail with an error on
// malformed input, never panic.
func FuzzFrameDecoders(f *testing.F) {
	for _, seed := range fuzzSeedFrames(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		op, payload, err := readFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		d := &dec{b: payload}
		switch op {
		case opHello:
			if _, _, err := decodeHello(d); err != nil && !errors.Is(err, ErrVersionMismatch) {
				t.Fatalf("hello error %v is not ErrVersionMismatch", err)
			}
		case opDispatchSeq:
			decodeSamples(&dec{b: payload})
			d.u64()
			decodeSamples(d)
		case opOpen:
			d.str()
			decodeOpenOptions(d)
		case opSubscribe:
			decodeSubscribeOptions(d)
		case opMembership:
			decodeMembership(d)
		case opEvent:
			decodeEvent(d)
		case opResp:
			if checkStatus(d) == nil {
				decodeTelemetry(d)
			}
		}
	})
}
