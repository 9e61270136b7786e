package tlslite

import (
	"encoding/binary"
	"slices"

	"autosec/internal/secchan"
)

// Batched record protection. AES-GCM gives these paths no cross-frame
// crypto to merge, so the batch forms are loops over the single-frame
// cores (sealRecord, openRecord) that write into caller-owned buffers,
// plus one input-choosing shortcut: a burst of in-order records clears
// the replay window with one batched screen instead of a check per
// frame. Both are byte-identical to looping Seal/Open — same records,
// same sequence movements, same window state, same errors.

// SealBatch protects payloads in order, one record per payload. dst
// follows the secchan batch contract: when long enough, record i is
// built in dst[i][:0], so a warmed dst keeps sealing allocation-free.
func (s *Session) SealBatch(payloads, dst [][]byte) ([][]byte, error) {
	out := secchan.SizeWires(dst, len(payloads))
	for i, p := range payloads {
		rec, err := s.sealRecord(out[i][:0], p)
		if err != nil {
			return out[:i], err
		}
		out[i] = rec
	}
	return out, nil
}

// OpenBatch verifies records in order, writing one verdict per record.
// When every record is well formed and the sequence numbers are
// strictly ascending — the honest in-order stream the experiments
// replay — the replay checks collapse into one Window.CheckBatch screen
// (sound there: marking an earlier, smaller sequence can only raise the
// high mark below the later ones and set bitmap bits they do not
// occupy). Any other shape runs the full per-record check. Either way
// payloads decrypt into the verdicts' reusable backings, and the
// verdicts and window transitions equal an Open loop exactly.
func (s *Session) OpenBatch(records [][]byte, verdicts []secchan.Verdict) []secchan.Verdict {
	verdicts = secchan.SizeVerdicts(verdicts, len(records))
	screened := s.screen(records)
	for i, rec := range records {
		var pt []byte
		var err error
		if screened {
			pt, err = s.openChecked(verdicts[i].Payload[:0], rec, s.batchSeqs[i])
		} else {
			pt, err = s.openRecord(verdicts[i].Payload[:0], rec)
		}
		verdicts[i].Payload, verdicts[i].Err = pt, err
	}
	return verdicts
}

// screen reports whether records are all well formed, strictly
// ascending, and clear of the replay window by one CheckBatch call; the
// screened sequence numbers are left in s.batchSeqs.
func (s *Session) screen(records [][]byte) bool {
	n := len(records)
	if cap(s.batchSeqs) < n {
		s.batchSeqs = make([]uint64, n)
		s.batchOK = make([]bool, n)
	}
	seqs, oks := s.batchSeqs[:n], s.batchOK[:n]
	for i, rec := range records {
		if len(rec) < RecordOverhead {
			return false
		}
		seqs[i] = binary.BigEndian.Uint64(rec[3:11])
	}
	if !secchan.AscendingAbove(0, seqs) {
		return false
	}
	s.replay.CheckBatch(seqs, oks)
	return !slices.Contains(oks, false)
}
