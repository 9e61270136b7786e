package cansec

import "autosec/internal/secchan"

// Batched CANsec processing: loops over the single-frame cores
// (protectSDU, verifySDU) that build SDUs straight into caller-owned
// buffers, byte-identical to looping Protect/Verify.

// ProtectBatch protects payloads in order under one priority
// identifier, returning the CANsec SDUs (the Payload of the CAN XL
// frame Protect would build — header ‖ body). dst follows the secchan
// batch contract: when long enough, SDU i is built in dst[i][:0], so a
// warmed dst keeps the path allocation-free. Freshness consumption and
// errors match a Protect loop exactly.
func (e *Endpoint) ProtectBatch(priorityID uint32, payloads, dst [][]byte) ([][]byte, error) {
	out := secchan.SizeWires(dst, len(payloads))
	for i, payload := range payloads {
		w, err := e.protectSDU(out[i][:0], priorityID, payload)
		if err != nil {
			return out[:i], err
		}
		out[i] = w
	}
	return out, nil
}

// VerifyBatch verifies CANsec SDUs (CAN XL frame payloads carrying the
// SDUCANsec type, as ProtectBatch emits) in order, writing one verdict
// per SDU. Verdicts, freshness commits, and errors match a Verify loop
// over the equivalent frames exactly; accepted payloads are built in
// the verdicts' reusable backings.
func (e *Endpoint) VerifyBatch(wires [][]byte, verdicts []secchan.Verdict) []secchan.Verdict {
	verdicts = secchan.SizeVerdicts(verdicts, len(wires))
	for i, w := range wires {
		verdicts[i].Payload, verdicts[i].Err = e.verifySDU(verdicts[i].Payload[:0], w)
	}
	return verdicts
}
