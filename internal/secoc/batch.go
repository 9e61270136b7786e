package secoc

import (
	"autosec/internal/secchan"
	"autosec/internal/vcrypto"
)

// Batched SECOC endpoints. SECOC is the one Table I suite whose
// per-frame crypto is a CMAC, and CBC-MAC chains are serial *within* a
// message but independent *across* messages — so a batch of PDUs can
// pipeline through the AES-NI kernel in vcrypto (8 MAC chains per
// call) where the single-frame path runs one chain at a time. The batch
// endpoints only choose inputs: they precompute tags through
// vcrypto.CMACBatch and hand them to the single-frame cores
// (protectPDU, verifyPDU), so they are byte-identical to a loop over
// Protect/Verify: same wires, same counter movements, same errors.

// batchScratch holds the reusable arenas of one endpoint's batch path:
// the MAC messages (data-ID ‖ payload ‖ full freshness) are laid out
// back to back in one buffer, so a warmed endpoint protects or
// verifies a whole batch without allocating.
type batchScratch struct {
	arena []byte
	msgs  [][]byte
	tags  [][16]byte
	preds []predicted // VerifyBatch: per-frame candidate guesses
}

// layout resizes the scratch to hold nMsgs MAC messages of totalLen
// total bytes and n per-frame predictions, reusing backing arrays
// across batches.
func (b *batchScratch) layout(n, nMsgs, totalLen int) {
	if cap(b.arena) < totalLen {
		b.arena = make([]byte, totalLen)
	}
	b.arena = b.arena[:totalLen]
	if cap(b.msgs) < nMsgs {
		b.msgs = make([][]byte, nMsgs)
		b.tags = make([][16]byte, nMsgs)
	}
	b.msgs = b.msgs[:nMsgs]
	b.tags = b.tags[:nMsgs]
	if cap(b.preds) < n {
		b.preds = make([]predicted, n)
	}
	b.preds = b.preds[:n]
}

// ProtectBatch builds the secured PDUs for payloads in order, consuming
// one freshness value per payload — byte-identical to calling Protect
// in a loop, but with all MACs computed through vcrypto.CMACBatch. dst
// follows the secchan batch contract: when long enough, wire i is built
// in dst[i][:0], so a warmed dst keeps the path allocation-free.
func (s *Sender) ProtectBatch(payloads, dst [][]byte) ([][]byte, error) {
	out := secchan.SizeWires(dst, len(payloads))
	n := len(payloads)
	if n == 0 {
		return out, nil
	}

	total := 0
	for _, p := range payloads {
		total += macMsgLen(p)
	}
	sc := &s.batch
	sc.layout(0, n, total)
	off := 0
	for i, p := range payloads {
		sc.msgs[i] = putMACMsg(sc.arena[off:], s.cfg.DataID, p, s.fv+uint64(i)+1)
		off += len(sc.msgs[i])
	}
	if err := vcrypto.CMACBatch(s.key, sc.msgs, sc.tags); err != nil {
		// A Protect loop would consume one freshness value before
		// hitting the same key error on its first MAC.
		s.fv++
		return out[:0], err
	}
	for i, p := range payloads {
		// Cannot fail: the tag is precomputed, so no MAC is computed.
		out[i], _ = s.protectPDU(out[i][:0], p, &sc.tags[i])
	}
	return out, nil
}

// VerifyBatch checks a batch of secured PDUs, writing one verdict per
// frame. It is the optimistic counterpart of Verify: predict guesses
// each frame's winning freshness candidates in O(1) and computes all
// predicted MACs in one CMACBatch call; then verifyPDU runs the
// authoritative serial candidate walk per frame, taking a precomputed
// tag whenever the walk lands on a predicted candidate. Predictions
// therefore only move crypto into the batched kernel — acceptance,
// counter commits, and errors are decided exactly as a Verify loop
// would decide them, whatever the prediction quality.
func (r *Receiver) VerifyBatch(wires [][]byte, verdicts []secchan.Verdict) []secchan.Verdict {
	verdicts = secchan.SizeVerdicts(verdicts, len(wires))
	preds := r.predict(wires)
	for i, pdu := range wires {
		verdicts[i].Payload, verdicts[i].Err = r.verifyPDU(verdicts[i].Payload[:0], pdu, preds[i])
	}
	return verdicts
}

// predict computes up to two candidate guesses per frame, with their
// tags, through one CMACBatch call. Candidate 0 assumes every earlier
// frame in the batch accepted (the honest in-order stream, where the
// first in-window candidate is the sender's real counter); candidate 1
// assumes every earlier frame rejected (the MAC ablation's forgery
// floods, where the receiver state never moves). Mixed accept/reject
// bursts degrade to the scalar MAC for the frames whose guesses miss —
// never to a wrong answer.
func (r *Receiver) predict(wires [][]byte) []predicted {
	oh := r.cfg.Overhead()
	macBytes := r.cfg.MACBits / 8
	total := 0
	for _, pdu := range wires {
		if len(pdu) >= oh {
			total += 2 * macMsgLen(pdu[:len(pdu)-oh])
		}
	}
	sc := &r.batch
	sc.layout(len(wires), 2*len(wires), total)

	startLast := r.fresh.Last()
	chainLast := startLast
	off, nMsg := 0, 0
	for i, pdu := range wires {
		p := &sc.preds[i]
		*p = predicted{}
		if len(pdu) < oh {
			continue
		}
		payload := pdu[:len(pdu)-oh]
		trunc := truncFV(pdu[len(pdu)-oh : len(pdu)-macBytes])
		for k, after := range [2]uint64{chainLast, startLast} {
			cand, ok := r.fresh.FirstCandidateAfter(after, trunc)
			if !ok || (k == 1 && p.tag[0] != nil && cand == p.cand[0]) {
				continue
			}
			sc.msgs[nMsg] = putMACMsg(sc.arena[off:], r.cfg.DataID, payload, cand)
			off += len(sc.msgs[nMsg])
			p.cand[k], p.tag[k] = cand, &sc.tags[nMsg]
			nMsg++
			if k == 0 {
				chainLast = cand
			}
		}
	}
	if vcrypto.CMACBatch(r.key, sc.msgs[:nMsg], sc.tags[:nMsg]) != nil {
		// Unreachable with a validated 16-byte key; verifyPDU still
		// produces the exact Verify outcomes without predictions.
		clear(sc.preds)
	}
	return sc.preds
}
