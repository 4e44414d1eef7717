package main

import (
	"fmt"
	mrand "math/rand/v2"

	"polardraw"
	"polardraw/internal/core"
	"polardraw/internal/font"
	"polardraw/internal/geom"
	"polardraw/internal/motion"
	"polardraw/internal/reader"
	"polardraw/internal/rf"
	"polardraw/internal/tag"
)

// stroke is one simulated letter: the raw reads a pen produces while
// writing it, the reference decode, and the index of every sample that
// closes a valid preprocessing window.
type stroke struct {
	letter  rune
	samples []reader.Sample // EPC unset; T from scene start
	ref     *core.Result
	// closeIdx[k] is the index of the sample whose Push closes the k-th
	// valid window, i.e. emits the k-th EventPoint. The window Finalize
	// flushes has no closing sample and is not listed.
	closeIdx []int
}

// durNs is the stroke's writing time (first to last read).
func (s *stroke) durNs() int64 {
	return int64((s.samples[len(s.samples)-1].T - s.samples[0].T) * 1e9)
}

// dueNs is sample i's offset from the stroke's first read.
func (s *stroke) dueNs(i int) int64 {
	return int64((s.samples[i].T - s.samples[0].T) * 1e9)
}

// inputs is everything a run derives from its seed before the serving
// stack sees a single sample.
type inputs struct {
	ants    [2]polardraw.Antenna
	cfg     core.Config // the serving decode configuration
	strokes []*stroke
}

// servingConfig is the decode configuration polardraw.Open uses with no
// decode options: the serving defaults.
func servingConfig(ants [2]polardraw.Antenna) core.Config {
	return core.Config{
		Antennas:  ants,
		BeamTopK:  polardraw.DefaultBeamTopK,
		CommitLag: polardraw.DefaultCommitLag,
	}
}

// makeInputs simulates n strokes. Every letter is written equally
// often (n/26 times, the remainder drawn by the seed) so seeds differ
// in how letters are written, not in which; the seed picks the order,
// the remainder, and each stroke's motion and reader seeds. Every
// stroke is decoded once by a single-threaded StreamTracker at the
// serving configuration to give its reference result.
func makeInputs(seed uint64, n int) (*inputs, error) {
	rng := mrand.New(mrand.NewPCG(seed, 0x73657276))
	rig := motion.DefaultRig()
	ants := rig.Antennas()
	ch := &rf.Channel{Reflectors: rf.OfficeReflectors(rig.BoardW)}
	tag.AD227(1).ApplyTo(ch)
	in := &inputs{ants: ants, cfg: servingConfig(ants)}
	tr := core.New(in.cfg)
	all := font.Letters()
	var letters []rune
	for len(letters)+len(all) <= n {
		letters = append(letters, all...)
	}
	for len(letters) < n {
		letters = append(letters, all[rng.IntN(len(all))])
	}
	rng.Shuffle(len(letters), func(i, j int) { letters[i], letters[j] = letters[j], letters[i] })
	for _, r := range letters {
		g, ok := font.Lookup(r)
		if !ok {
			return nil, fmt.Errorf("no glyph for %q", r)
		}
		path := g.Path().Scale(0.2).Translate(geom.Vec2{X: 0.18, Y: 0.03})
		sess := motion.Write(path, string(r), motion.Config{Seed: rng.Uint64()})
		rd := reader.New(reader.Config{
			Antennas: ants[:], Channel: ch, EPC: tag.AD227(1).EPC, Seed: rng.Uint64(),
		})
		smps := rd.Inventory(sess)
		for j := range smps {
			smps[j].EPC = ""
		}
		st := tr.Stream()
		if err := st.Push(smps...); err != nil {
			return nil, err
		}
		ref, err := st.Finalize()
		if err != nil {
			return nil, fmt.Errorf("reference decode of %q: %w", r, err)
		}
		s := &stroke{letter: r, samples: smps, ref: ref,
			closeIdx: closingSamples(smps, tr.Config().Window)}
		// Every closing sample emits one point, and Finalize's flush one
		// more when the last window is valid: the reference must agree.
		if n := len(ref.Windows) - len(s.closeIdx); n != 0 && n != 1 {
			return nil, fmt.Errorf("stroke %q: %d closing samples for %d windows",
				r, len(s.closeIdx), len(ref.Windows))
		}
		in.strokes = append(in.strokes, s)
	}
	return in, nil
}

// closingSamples mirrors core.StreamTracker.Push's window indexing: a
// sample whose bucket lies past the open window closes it, and the
// closed window is valid (emits a point) when both antennas
// contributed.
func closingSamples(smps []reader.Sample, window float64) []int {
	var out []int
	if len(smps) == 0 {
		return nil
	}
	startT := smps[0].T
	open := 0
	var count [2]int
	for i, s := range smps {
		b := int((s.T - startT) / window)
		if b < open {
			continue // late: dropped by the tracker
		}
		if b > open {
			if count[0] > 0 && count[1] > 0 {
				out = append(out, i)
			}
			count = [2]int{}
			open = b
		}
		if s.Antenna == 0 || s.Antenna == 1 {
			count[s.Antenna]++
		}
	}
	return out
}
