package cansec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"autosec/internal/canbus"
	"autosec/internal/secchan"
	"autosec/internal/vcrypto"
)

// refEndpoint is the CANsec endpoint as it stood before Protect and
// ProtectBatch were folded onto one per-frame core, kept verbatim as an
// independent oracle: the allocating GCMSeal/GCMTag protect path and
// its own copy of the verification core.
type refEndpoint struct {
	zone   *Zone
	nodeID uint16
	sendFV uint32
	peerFV map[uint16]*secchan.Counter
	Window uint32

	macMsg []byte
}

func newRefEndpoint(zone *Zone, nodeID uint16) *refEndpoint {
	return &refEndpoint{zone: zone, nodeID: nodeID, peerFV: make(map[uint16]*secchan.Counter), Window: 1024}
}

func (e *refEndpoint) peer(src uint16) *secchan.Counter {
	c, ok := e.peerFV[src]
	if !ok {
		c = &secchan.Counter{}
		e.peerFV[src] = c
	}
	c.Window = uint64(e.Window)
	return c
}

// Protect wraps payload into a CANsec-protected CAN XL frame with the
// given priority identifier.
func (e *refEndpoint) Protect(priorityID uint32, payload []byte) (*canbus.Frame, error) {
	e.sendFV++
	hdr := make([]byte, headerLen)
	binary.BigEndian.PutUint16(hdr[0:2], e.zone.ID)
	binary.BigEndian.PutUint16(hdr[2:4], e.nodeID)
	binary.BigEndian.PutUint32(hdr[4:8], e.sendFV)

	sci := uint64(e.zone.ID)<<16 | uint64(e.nodeID)
	var body []byte
	var err error
	if e.zone.Mode == AuthEncrypt {
		body, err = vcrypto.GCMSeal(e.zone.key, sci, e.sendFV, hdr, payload)
	} else {
		var tag []byte
		tag, err = vcrypto.GCMTag(e.zone.key, sci, e.sendFV, append(append([]byte(nil), hdr...), payload...))
		body = append(append([]byte(nil), payload...), tag...)
	}
	if err != nil {
		return nil, err
	}
	f := &canbus.Frame{
		ID:      priorityID,
		Format:  canbus.XL,
		SDUType: canbus.SDUCANsec,
		Payload: append(hdr, body...),
	}
	return f, f.Validate()
}

// Verify checks a CANsec frame and returns the authenticated payload.
func (e *refEndpoint) Verify(f *canbus.Frame) ([]byte, error) {
	if f.SDUType != canbus.SDUCANsec {
		return nil, fmt.Errorf("cansec: SDU type %#x is not CANsec", f.SDUType)
	}
	return e.verifySDU(nil, f.Payload)
}

func errFrameTooShort() error { return fmt.Errorf("cansec: frame too short") }
func errWrongZone(got, want uint16) error {
	return fmt.Errorf("cansec: zone %d, expected %d", got, want)
}
func errStaleFreshness(fv, lo, hi uint32) error {
	return fmt.Errorf("cansec: freshness %d outside (%d, %d]", fv, lo, hi)
}
func errShortAuthBody() error { return fmt.Errorf("cansec: short auth body") }
func errBadTag() error        { return fmt.Errorf("cansec: tag verification failed") }

func (e *refEndpoint) verifySDU(dst, sdu []byte) ([]byte, error) {
	if len(sdu) < Overhead {
		return nil, errFrameTooShort()
	}
	hdr := sdu[:headerLen]
	zoneID := binary.BigEndian.Uint16(hdr[0:2])
	src := binary.BigEndian.Uint16(hdr[2:4])
	fv := binary.BigEndian.Uint32(hdr[4:8])
	if zoneID != e.zone.ID {
		return nil, errWrongZone(zoneID, e.zone.ID)
	}
	ctr := e.peer(src)
	if !ctr.Accept(uint64(fv)) {
		last := uint32(ctr.Last())
		return nil, errStaleFreshness(fv, last, last+e.Window)
	}

	sci := uint64(zoneID)<<16 | uint64(src)
	body := sdu[headerLen:]
	var payload []byte
	var err error
	if e.zone.Mode == AuthEncrypt {
		payload, err = vcrypto.GCMOpenInto(dst, e.zone.key, sci, fv, hdr, body)
		if err != nil {
			return nil, err
		}
	} else {
		if len(body) < tagLen {
			return nil, errShortAuthBody()
		}
		pt := body[:len(body)-tagLen]
		tag := body[len(body)-tagLen:]
		msg := append(append(e.macMsg[:0], hdr...), pt...)
		e.macMsg = msg[:0]
		if !vcrypto.GCMVerifyTag(e.zone.key, sci, fv, msg, tag) {
			return nil, errBadTag()
		}
		payload = append(dst, pt...)
	}
	ctr.Commit(uint64(fv))
	return payload, nil
}

// deliveries derives a receive schedule from honestly protected wires:
// in-order SDUs interleaved with replays, reorders, tampered copies,
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
// buffers, random batch cuts) against the reference in both modes over
// honest, tampered, truncated, replayed, reordered, and oversized
// traffic: SDUs, verdicts, error strings, and freshness counters must
// all match.
func TestSingleAndBatchMatchReference(t *testing.T) {
	for name, mode := range map[string]Mode{"auth-only": AuthOnly, "auth-encrypt": AuthEncrypt} {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(mode) + 1))
			zone, err := NewZone(7, mode, key)
			if err != nil {
				t.Fatal(err)
			}
			single, singleRx := NewEndpoint(zone, 1), NewEndpoint(zone, 2)
			batch, batchRx := NewEndpoint(zone, 1), NewEndpoint(zone, 2)
			ref, refRx := newRefEndpoint(zone, 1), newRefEndpoint(zone, 2)
			singleRx.Window, batchRx.Window, refRx.Window = 16, 16, 16

			var dst [][]byte
			var verdicts []secchan.Verdict
			for round := 0; round < 40; round++ {
				payloads := make([][]byte, 1+rng.Intn(40))
				for i := range payloads {
					payloads[i] = make([]byte, rng.Intn(80))
					if round%10 == 9 && i == len(payloads)/2 {
						// Too large for a CAN XL frame once protected.
						payloads[i] = make([]byte, canbus.XL.MaxPayload())
					}
					rng.Read(payloads[i])
				}
				var wires [][]byte
				var refErr error
				for i, p := range payloads {
					f, err := ref.Protect(0x123, p)
					got, gotErr := single.Protect(0x123, p)
					what := fmt.Sprintf("round %d Protect %d", round, i)
					if err != nil {
						sameOutcome(t, what, nil, nil, gotErr, err)
						refErr = err
						break
					}
					sameOutcome(t, what, got.Payload, f.Payload, gotErr, err)
					if got.ID != f.ID || got.Format != f.Format || got.SDUType != f.SDUType {
						t.Fatalf("%s: frame header %+v, reference %+v", what, *got, *f)
					}
					wires = append(wires, f.Payload)
				}
				dst, err = batch.ProtectBatch(0x123, payloads, dst)
				sameOutcome(t, fmt.Sprintf("round %d ProtectBatch", round), nil, nil, err, refErr)
				if len(dst) != len(wires) {
					t.Fatalf("round %d: ProtectBatch returned %d SDUs, reference %d", round, len(dst), len(wires))
				}
				for i := range wires {
					sameOutcome(t, fmt.Sprintf("round %d ProtectBatch %d", round, i), dst[i], wires[i], nil, nil)
				}
				if single.sendFV != ref.sendFV || batch.sendFV != ref.sendFV {
					t.Fatalf("round %d: sendFV single %d, batch %d, reference %d", round, single.sendFV, batch.sendFV, ref.sendFV)
				}
				if len(wires) == 0 {
					continue
				}

				delivery := deliveries(rng, wires)
				for start := 0; start < len(delivery); {
					end := min(start+1+rng.Intn(9), len(delivery))
					verdicts = batchRx.VerifyBatch(delivery[start:end], verdicts)
					for i, w := range delivery[start:end] {
						f := &canbus.Frame{ID: 0x123, Format: canbus.XL, SDUType: canbus.SDUCANsec, Payload: w}
						want, wantErr := refRx.Verify(f)
						what := fmt.Sprintf("round %d delivery %d", round, start+i)
						got, err := singleRx.Verify(f)
						sameOutcome(t, what+" Verify", got, want, err, wantErr)
						sameOutcome(t, what+" VerifyBatch", verdicts[i].Payload, want, verdicts[i].Err, wantErr)
					}
					start = end
				}
				for src, c := range refRx.peerFV {
					if singleRx.peerFV[src].Last() != c.Last() || batchRx.peerFV[src].Last() != c.Last() {
						t.Fatalf("round %d: node %d freshness single %d, batch %d, reference %d",
							round, src, singleRx.peerFV[src].Last(), batchRx.peerFV[src].Last(), c.Last())
					}
				}
				if len(singleRx.peerFV) != len(refRx.peerFV) || len(batchRx.peerFV) != len(refRx.peerFV) {
					t.Fatalf("round %d: tracked senders single %d, batch %d, reference %d",
						round, len(singleRx.peerFV), len(batchRx.peerFV), len(refRx.peerFV))
				}
			}
		})
	}
}
