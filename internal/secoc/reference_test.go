package secoc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"autosec/internal/secchan"
	"autosec/internal/vcrypto"
)

// refSender and refReceiver are the SECOC endpoints as they stood
// before Protect/Verify and ProtectBatch/VerifyBatch were folded onto
// one per-PDU core, kept verbatim as an independent oracle: their own
// PDU assembly and MAC message layout, the scalar candidate walk, no
// batch scratch.
type refSender struct {
	cfg Config
	key []byte
	fv  uint64
	mac refMACScratch
}

// Protect builds the secured PDU for payload, consuming one freshness
// value.
func (s *refSender) Protect(payload []byte) ([]byte, error) {
	s.fv++
	mac, err := s.mac.compute(s.key, s.cfg, payload, s.fv)
	if err != nil {
		return nil, err
	}
	fvBytes := s.cfg.FreshnessBits / 8
	out := make([]byte, 0, len(payload)+s.cfg.Overhead())
	out = append(out, payload...)
	var fvBuf [8]byte
	binary.BigEndian.PutUint64(fvBuf[:], s.fv)
	out = append(out, fvBuf[8-fvBytes:]...)
	out = append(out, mac...)
	return out, nil
}

type refReceiver struct {
	cfg   Config
	key   []byte
	fresh secchan.Freshness
	mac   refMACScratch
}

func newRefReceiver(cfg Config, key []byte) *refReceiver {
	return &refReceiver{
		cfg:   cfg,
		key:   key,
		fresh: secchan.Freshness{Bits: cfg.FreshnessBits, Window: cfg.AcceptWindow},
	}
}

// Verify checks a secured PDU and returns the authenticated payload.
func (r *refReceiver) Verify(pdu []byte) ([]byte, error) {
	oh := r.cfg.Overhead()
	if len(pdu) < oh {
		return nil, fmt.Errorf("secoc: PDU shorter than overhead (%d < %d)", len(pdu), oh)
	}
	fvBytes := r.cfg.FreshnessBits / 8
	payload := pdu[:len(pdu)-oh]
	fvTrunc := pdu[len(pdu)-oh : len(pdu)-oh+fvBytes]
	mac := pdu[len(pdu)-r.cfg.MACBits/8:]

	var truncVal uint64
	for _, b := range fvTrunc {
		truncVal = truncVal<<8 | uint64(b)
	}

	it := r.fresh.Candidates(truncVal)
	for it.Next() {
		want, err := r.mac.compute(r.key, r.cfg, payload, it.Value())
		if err != nil {
			return nil, err
		}
		if secchan.VerifyTrunc(want, mac) {
			it.Commit()
			return append([]byte(nil), payload...), nil
		}
	}
	return nil, errVerifyFailed
}

type refMACScratch struct {
	buf []byte
}

// compute returns the truncated CMAC over data-ID || payload || full
// freshness, aliasing the scratch buffer.
func (m *refMACScratch) compute(key []byte, cfg Config, payload []byte, fv uint64) ([]byte, error) {
	n := 2 + len(payload) + 8
	macBytes := cfg.MACBits / 8
	if cap(m.buf) < n+macBytes {
		m.buf = make([]byte, n+macBytes)
	}
	msg := m.buf[:n]
	binary.BigEndian.PutUint16(msg[0:2], cfg.DataID)
	copy(msg[2:], payload)
	binary.BigEndian.PutUint64(msg[2+len(payload):], fv)
	tag, err := vcrypto.CMAC(key, msg)
	if err != nil {
		return nil, err
	}
	mac := m.buf[n : n+macBytes]
	copy(mac, tag[:])
	return mac, nil
}

// deliveries derives a receive schedule from honestly protected wires:
// in-order PDUs interleaved with replays, reorders, tampered copies,
// and truncations, all chosen by rng.
func deliveries(rng *rand.Rand, wires [][]byte) [][]byte {
	var out [][]byte
	next := 0
	for len(out) < 2*len(wires) {
		w := wires[rng.Intn(len(wires))] // a replay or a reorder
		switch rng.Intn(6) {
		case 0, 1, 2:
			if next < len(wires) {
				w = wires[next]
				next++
			}
		case 4:
			w = append([]byte(nil), w...)
			w[rng.Intn(len(w))] ^= byte(1 + rng.Intn(255))
		case 5:
			w = w[:rng.Intn(len(w))]
		}
		out = append(out, w)
	}
	return out
}

// sameOutcome fails unless two protect or verify results agree on the
// bytes and the error string.
func sameOutcome(t *testing.T, what string, got, want []byte, gotErr, wantErr error) {
	t.Helper()
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: error %v, reference %v", what, gotErr, wantErr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: bytes %x, reference %x", what, got, want)
	}
}

// TestSingleAndBatchMatchReference drives the single-frame API
// (Protect/Verify) and the batch API (ProtectBatch/VerifyBatch, warmed
// buffers, random batch cuts) against the reference over honest,
// tampered, truncated, replayed, reordered, and lossy traffic, for the
// profile-1 configuration, a wide one, and one whose acceptance window
// spans several truncated-freshness wraps: PDUs, verdicts, error
// strings, and freshness counters must all match. The last
// configuration gives a PDU several in-window candidates, so the walk
// meets candidates the batch did not predict and falls back to the
// scalar MAC.
func TestSingleAndBatchMatchReference(t *testing.T) {
	cfgs := []Config{
		DefaultConfig(0x2A),
		{DataID: 7, MACBits: 64, FreshnessBits: 16, AcceptWindow: 300},
		{DataID: 9, MACBits: 32, FreshnessBits: 8, AcceptWindow: 700},
	}
	for _, cfg := range cfgs {
		t.Run(fmt.Sprintf("mac=%d/fv=%d/window=%d", cfg.MACBits, cfg.FreshnessBits, cfg.AcceptWindow), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(cfg.AcceptWindow)))
			single, singleRx := pair(t, cfg)
			batch, batchRx := pair(t, cfg)
			ref := &refSender{cfg: cfg, key: key}
			refRx := newRefReceiver(cfg, key)

			var dst [][]byte
			var verdicts []secchan.Verdict
			for round := 0; round < 40; round++ {
				payloads := make([][]byte, 1+rng.Intn(40))
				for i := range payloads {
					payloads[i] = make([]byte, rng.Intn(80))
					rng.Read(payloads[i])
				}
				wires := make([][]byte, len(payloads))
				for i, p := range payloads {
					var refErr error
					wires[i], refErr = ref.Protect(p)
					got, err := single.Protect(p)
					sameOutcome(t, fmt.Sprintf("round %d Protect %d", round, i), got, wires[i], err, refErr)
				}
				var err error
				dst, err = batch.ProtectBatch(payloads, dst)
				if err != nil {
					t.Fatal(err)
				}
				for i := range wires {
					sameOutcome(t, fmt.Sprintf("round %d ProtectBatch %d", round, i), dst[i], wires[i], nil, nil)
				}
				if single.FV() != ref.fv || batch.FV() != ref.fv {
					t.Fatalf("round %d: FV single %d, batch %d, reference %d", round, single.FV(), batch.FV(), ref.fv)
				}

				delivery := deliveries(rng, wires)
				for start := 0; start < len(delivery); {
					end := min(start+1+rng.Intn(9), len(delivery))
					verdicts = batchRx.VerifyBatch(delivery[start:end], verdicts)
					for i, w := range delivery[start:end] {
						want, wantErr := refRx.Verify(w)
						what := fmt.Sprintf("round %d delivery %d", round, start+i)
						got, err := singleRx.Verify(w)
						sameOutcome(t, what+" Verify", got, want, err, wantErr)
						sameOutcome(t, what+" VerifyBatch", verdicts[i].Payload, want, verdicts[i].Err, wantErr)
					}
					start = end
				}
				if last := refRx.fresh.Last(); singleRx.LastFV() != last || batchRx.LastFV() != last {
					t.Fatalf("round %d: last FV single %d, batch %d, reference %d", round, singleRx.LastFV(), batchRx.LastFV(), last)
				}
			}
		})
	}
}
