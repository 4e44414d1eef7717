package main

import (
	"fmt"
	"time"
)

// workload is one traffic mix. Open-loop workloads replay pens at
// their true timestamps whatever the tier does; the closed loop sends
// its next report as soon as the tier has room for it.
type workload struct {
	name   string
	why    string
	remote bool // shard servers over loopback TCP, with a journal

	open bool
	// Open loop: pens write strokes back to back, joining uniformly over
	// the warm-up. After a stroke's last read the pen is silent for
	// penUpGap, then Finalize is due; the pen rests restMin..restMax
	// more before its next stroke.
	pens int

	// Closed loop: a fixed set of rounds, each roundPens strokes
	// interleaved by timestamp as one shared reader emits them, sent in
	// reports of reportSize reads. A report waits until it fits in a
	// window of outstanding reads not yet evidenced by a point event,
	// so the tier runs at capacity on shallow queues.
	roundPens   int
	rounds      int
	reportSize  int
	outstanding int

	// Handoffs of mid-stroke pens are issued every handoffEvery: in the
	// measured interval on the open loop, for pauseHandoffs in a pause
	// after it on the closed loops.
	handoffEvery time.Duration
	warm         time.Duration // excluded from every metric
}

// Parameters every workload shares.
const (
	shards      = 2    // in-process shards, or shard servers
	maxSessions = 1024 // per shard: above what any shard holds, so no live stroke is LRU-evicted
	baseStrokes = 78   // distinct strokes simulated at set-up: three per letter

	// checkpointEvery is the shard servers' checkpoint cadence in
	// closed windows; the core replay snapshots at the same cadence.
	checkpointEvery = 16

	reportPeriod     = time.Millisecond       // open loop: reader report period
	penUpGap         = 100 * time.Millisecond // open loop: silence before Finalize
	restMin, restMax = 1 * time.Second, 3 * time.Second
	pauseHandoffs    = 2 * time.Second // closed loop: handoff phase of the pause

	// A handoff moves a stroke between these fractions of its writing
	// time (open loop) or of its reads (closed loop).
	handoffMinProgress, handoffMaxProgress = 0.2, 0.6

	// sliceLen is the length of the slices the measured interval is
	// cut into; per-slice values are summarized by their median.
	sliceLen = 2 * time.Second
)

var workloads = []*workload{
	{
		name: "live-ink",
		why: "in-process open loop of 128 pens writing at true timestamps; decode plus the " +
			"per-sample session hop dominate: the product's steady state",
		open: true, pens: 128,
		handoffEvery: 250 * time.Millisecond,
		warm:         7 * time.Second,
	},
	{
		name: "backlog-drain",
		why: "in-process closed loop at saturation; the decode kernel does nearly all the work " +
			"while wire, journal and pacing are bypassed, so a kernel gain shows at full size",
		roundPens: 64, rounds: 32, reportSize: 16, outstanding: 2048,
		handoffEvery: 50 * time.Millisecond,
		warm:         3 * time.Second,
	},
	{
		name: "durable-wire",
		why: "closed loop through two shard servers over loopback TCP with a journal, checkpoints " +
			"and handoffs; wire, journal and snapshot work dominate, decode is a small share",
		remote:    true,
		roundPens: 64, rounds: 32, reportSize: 16, outstanding: 1024,
		handoffEvery: 50 * time.Millisecond,
		warm:         3 * time.Second,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
