package suites

import (
	"autosec/internal/ethernet"
	"autosec/internal/secchan"
)

// Native batch fast paths: every registry suite implements
// secchan.BatchSuite by delegating to its protocol's batched endpoints
// and then replaying the exact per-frame stats updates the single-frame
// adapters perform — so batched runs leave Stats, state, and wires
// byte-identical to frame-at-a-time runs (the contract secchan/batch.go
// documents and the differential fuzzers enforce).
var (
	_ secchan.BatchSuite = (*secocSuite)(nil)
	_ secchan.BatchSuite = (*tlsSuite)(nil)
	_ secchan.BatchSuite = (*ipsecSuite)(nil)
	_ secchan.BatchSuite = (*macsecSuite)(nil)
	_ secchan.BatchSuite = (*cansecSuite)(nil)
)

// recordProtects replays the per-frame protect accounting for the
// successfully protected prefix.
func recordProtects(st *secchan.Stats, payloads, wires [][]byte) {
	for i, w := range wires {
		st.RecordProtect(len(payloads[i]), len(w))
	}
}

// recordVerifies replays the per-frame verify accounting.
func recordVerifies(st *secchan.Stats, verdicts []secchan.Verdict) {
	for i := range verdicts {
		st.RecordVerify(verdicts[i].Err == nil)
	}
}

func (s *secocSuite) ProtectBatch(payloads, dst [][]byte) ([][]byte, error) {
	wires, err := s.send.ProtectBatch(payloads, dst)
	recordProtects(&s.stats, payloads, wires)
	return wires, err
}

func (s *secocSuite) VerifyBatch(wires [][]byte, verdicts []secchan.Verdict) []secchan.Verdict {
	verdicts = s.recv.VerifyBatch(wires, verdicts)
	recordVerifies(&s.stats, verdicts)
	return verdicts
}

func (s *tlsSuite) ProtectBatch(payloads, dst [][]byte) ([][]byte, error) {
	wires, err := s.client.SealBatch(payloads, dst)
	recordProtects(&s.stats, payloads, wires)
	return wires, err
}

func (s *tlsSuite) VerifyBatch(wires [][]byte, verdicts []secchan.Verdict) []secchan.Verdict {
	verdicts = s.server.OpenBatch(wires, verdicts)
	recordVerifies(&s.stats, verdicts)
	return verdicts
}

func (s *ipsecSuite) ProtectBatch(payloads, dst [][]byte) ([][]byte, error) {
	wires, err := s.send.EncapsulateBatch(payloads, dst)
	recordProtects(&s.stats, payloads, wires)
	return wires, err
}

func (s *ipsecSuite) VerifyBatch(wires [][]byte, verdicts []secchan.Verdict) []secchan.Verdict {
	verdicts = s.recv.DecapsulateBatch(wires, verdicts)
	recordVerifies(&s.stats, verdicts)
	return verdicts
}

func (s *macsecSuite) ProtectBatch(payloads, dst [][]byte) ([][]byte, error) {
	out := secchan.SizeWires(dst, len(payloads))
	f := ethernet.Frame{Dst: macsecDstMAC, Src: macsecSrcMAC, EtherType: ethernet.EtherTypeApp}
	for i, p := range payloads {
		f.Payload = p
		w, err := s.tx.ProtectPayload(out[i], &f)
		if err != nil {
			return out[:i], err
		}
		out[i] = w
		s.stats.RecordProtect(len(p), len(w))
	}
	return out, nil
}

func (s *macsecSuite) VerifyBatch(wires [][]byte, verdicts []secchan.Verdict) []secchan.Verdict {
	verdicts = secchan.SizeVerdicts(verdicts, len(wires))
	for i, w := range wires {
		_, pt, err := s.rx.VerifyPayload(verdicts[i].Payload[:0], macsecDstMAC, macsecSrcMAC, w)
		verdicts[i].Payload, verdicts[i].Err = pt, err
		s.stats.RecordVerify(err == nil)
	}
	return verdicts
}

func (s *cansecSuite) ProtectBatch(payloads, dst [][]byte) ([][]byte, error) {
	wires, err := s.send.ProtectBatch(0x100, payloads, dst)
	recordProtects(&s.stats, payloads, wires)
	return wires, err
}

func (s *cansecSuite) VerifyBatch(wires [][]byte, verdicts []secchan.Verdict) []secchan.Verdict {
	verdicts = s.recv.VerifyBatch(wires, verdicts)
	recordVerifies(&s.stats, verdicts)
	return verdicts
}
