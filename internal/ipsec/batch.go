package ipsec

import (
	"encoding/binary"
	"slices"

	"autosec/internal/secchan"
)

// Batched ESP processing, the tlslite pattern at the network layer:
// loops over the single-frame cores (encapsulate, decapsulate) that
// build into caller-owned buffers, and an in-order burst clears the
// anti-replay window with one batched screen. Byte-identical to looping
// Encapsulate/Decapsulate — same packets, same sequence and window
// movements, same errors (including stopping a batch at the
// sequence-exhaustion point exactly where the loop would).

// EncapsulateBatch protects inner packets in order. dst follows the
// secchan batch contract: when long enough, packet i is built in
// dst[i][:0], so a warmed dst keeps encapsulation allocation-free.
func (sa *SA) EncapsulateBatch(inners, dst [][]byte) ([][]byte, error) {
	out := secchan.SizeWires(dst, len(inners))
	for i, inner := range inners {
		pkt, err := sa.encapsulate(out[i][:0], inner)
		if err != nil {
			return out[:i], err
		}
		out[i] = pkt
	}
	return out, nil
}

// DecapsulateBatch verifies ESP packets in order, writing one verdict
// per packet into the verdicts' reusable backings. Well-formed bursts
// with matching SPIs and strictly ascending sequence numbers clear the
// anti-replay window with one batched screen (sound for the same
// reason as tlslite's: earlier, smaller marks cannot invalidate later
// checks the screen already passed); anything else runs the full
// per-packet check. Window state and verdicts equal a Decapsulate loop
// exactly.
func (sa *SA) DecapsulateBatch(pkts [][]byte, verdicts []secchan.Verdict) []secchan.Verdict {
	verdicts = secchan.SizeVerdicts(verdicts, len(pkts))
	screened := sa.screen(pkts)
	for i, pkt := range pkts {
		var inner []byte
		var err error
		if screened {
			inner, err = sa.openChecked(verdicts[i].Payload[:0], pkt, uint32(sa.batchSeqs[i]))
		} else {
			inner, err = sa.decapsulate(verdicts[i].Payload[:0], pkt)
		}
		verdicts[i].Payload, verdicts[i].Err = inner, err
	}
	return verdicts
}

// screen reports whether pkts are all well formed for this SA, strictly
// ascending, and clear of the anti-replay window by one CheckBatch
// call; the screened sequence numbers are left in sa.batchSeqs.
func (sa *SA) screen(pkts [][]byte) bool {
	n := len(pkts)
	if cap(sa.batchSeqs) < n {
		sa.batchSeqs = make([]uint64, n)
		sa.batchOK = make([]bool, n)
	}
	seqs, oks := sa.batchSeqs[:n], sa.batchOK[:n]
	for i, pkt := range pkts {
		if len(pkt) < Overhead || binary.BigEndian.Uint32(pkt[0:4]) != sa.SPI {
			return false
		}
		seqs[i] = uint64(binary.BigEndian.Uint32(pkt[4:8]))
	}
	if !secchan.AscendingAbove(0, seqs) {
		return false
	}
	sa.replay.Size = sa.WindowSize
	sa.replay.CheckBatch(seqs, oks)
	return !slices.Contains(oks, false)
}
