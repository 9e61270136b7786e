package macsec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"autosec/internal/ethernet"
	"autosec/internal/secchan"
	"autosec/internal/vcrypto"
)

// refSecY is the SecY frame path as it stood before Protect/Verify and
// ProtectPayload/VerifyPayload were folded onto one per-frame core,
// kept verbatim as an independent oracle: its own SecTAG marshalling,
// parsing, and AAD assembly, and the allocating GCMSeal/GCMTag/GCMOpen
// forms.
type refSecY struct {
	mode         Mode
	sci          uint64
	an           uint8
	sak          []byte
	nexPN        uint32
	peers        map[uint64]*rxChannel
	ReplayWindow uint32
}

func newRefSecY(mode Mode, sci uint64, sak []byte, an uint8) *refSecY {
	return &refSecY{mode: mode, sci: sci, an: an & 3, sak: sak, nexPN: 1, peers: make(map[uint64]*rxChannel)}
}

func (s *refSecY) addPeer(sci uint64, sak []byte, an uint8) {
	s.peers[sci] = &rxChannel{sak: sak, an: an & 3}
}

func refMarshal(t *SecTAG) []byte {
	buf := make([]byte, secTAGLen)
	flags := t.AN & 0x03
	if t.Enc {
		flags |= 0x08
	}
	buf[0] = flags
	binary.BigEndian.PutUint32(buf[2:6], t.PN)
	binary.BigEndian.PutUint64(buf[6:14], t.SCI)
	return buf
}

func refParseSecTAG(b []byte) (*SecTAG, error) {
	if len(b) < secTAGLen {
		return nil, fmt.Errorf("macsec: short SecTAG")
	}
	var t SecTAG
	t.AN = b[0] & 0x03
	t.Enc = b[0]&0x08 != 0
	t.PN = binary.BigEndian.Uint32(b[2:6])
	t.SCI = binary.BigEndian.Uint64(b[6:14])
	return &t, nil
}

func refBuildAAD(dst, src ethernet.MAC, tag *SecTAG) []byte {
	aad := make([]byte, 0, 12+secTAGLen)
	aad = append(aad, dst[:]...)
	aad = append(aad, src[:]...)
	aad = append(aad, refMarshal(tag)...)
	return aad
}

// Protect wraps an Ethernet frame in MACsec.
func (s *refSecY) Protect(f *ethernet.Frame) (*ethernet.Frame, error) {
	if s.nexPN == 0 {
		return nil, fmt.Errorf("macsec: transmit PN exhausted; rekey required")
	}
	tag := &SecTAG{AN: s.an, PN: s.nexPN, SCI: s.sci, Enc: s.mode == Confidential}
	s.nexPN++

	inner := make([]byte, 2+len(f.Payload))
	binary.BigEndian.PutUint16(inner[0:2], f.EtherType)
	copy(inner[2:], f.Payload)

	aad := refBuildAAD(f.Dst, f.Src, tag)
	var body []byte
	var err error
	if s.mode == Confidential {
		body, err = vcrypto.GCMSeal(s.sak, tag.SCI, tag.PN, aad, inner)
	} else {
		var icv []byte
		icv, err = vcrypto.GCMTag(s.sak, tag.SCI, tag.PN, append(aad, inner...))
		body = append(append([]byte(nil), inner...), icv...)
	}
	if err != nil {
		return nil, err
	}

	out := &ethernet.Frame{
		Dst: f.Dst, Src: f.Src, VLAN: f.VLAN,
		EtherType: ethernet.EtherTypeMACsec,
		Payload:   append(refMarshal(tag), body...),
	}
	return out, out.Validate()
}

// Verify unwraps a MACsec frame from a registered peer, enforcing
// replay protection, and returns the restored inner frame.
func (s *refSecY) Verify(f *ethernet.Frame) (*ethernet.Frame, error) {
	if f.EtherType != ethernet.EtherTypeMACsec {
		return nil, fmt.Errorf("macsec: not a MACsec frame (ethertype %#x)", f.EtherType)
	}
	tag, err := refParseSecTAG(f.Payload)
	if err != nil {
		return nil, err
	}
	ch, ok := s.peers[tag.SCI]
	if !ok {
		return nil, fmt.Errorf("macsec: unknown SCI %#x", tag.SCI)
	}
	if tag.AN != ch.an {
		return nil, fmt.Errorf("macsec: association number %d, expected %d", tag.AN, ch.an)
	}
	// Replay check before crypto, per 802.1AE.
	if !secchan.LenientAccept(uint64(ch.highPN), uint64(tag.PN), uint64(s.ReplayWindow)) {
		return nil, fmt.Errorf("macsec: replay: PN %d not above %d (window %d)", tag.PN, ch.highPN, s.ReplayWindow)
	}

	body := f.Payload[secTAGLen:]
	aad := refBuildAAD(f.Dst, f.Src, tag)
	var inner []byte
	if tag.Enc {
		inner, err = vcrypto.GCMOpen(ch.sak, tag.SCI, tag.PN, aad, body)
		if err != nil {
			return nil, err
		}
	} else {
		if len(body) < icvLen {
			return nil, fmt.Errorf("macsec: short integrity frame")
		}
		inner = body[:len(body)-icvLen]
		icv := body[len(body)-icvLen:]
		if !vcrypto.GCMVerifyTag(ch.sak, tag.SCI, tag.PN, append(aad, inner...), icv) {
			return nil, fmt.Errorf("macsec: ICV verification failed")
		}
	}
	if len(inner) < 2 {
		return nil, fmt.Errorf("macsec: inner frame too short")
	}
	if tag.PN > ch.highPN {
		ch.highPN = tag.PN
	}
	out := &ethernet.Frame{
		Dst: f.Dst, Src: f.Src, VLAN: f.VLAN,
		EtherType: binary.BigEndian.Uint16(inner[0:2]),
		Payload:   append([]byte(nil), inner[2:]...),
	}
	return out, nil
}

// deliveries derives a receive schedule from honestly protected wires:
// in-order frames interleaved with replays, reorders, tampered copies,
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

// sameFrame fails unless a protected or restored frame matches the
// reference's in every header field and the payload.
func sameFrame(t *testing.T, what string, got, want *ethernet.Frame, gotErr, wantErr error) {
	t.Helper()
	if wantErr != nil || gotErr != nil {
		sameOutcome(t, what, nil, nil, gotErr, wantErr)
		return
	}
	if got.Dst != want.Dst || got.Src != want.Src || got.VLAN != want.VLAN || got.EtherType != want.EtherType {
		t.Fatalf("%s: frame header %+v, reference %+v", what, *got, *want)
	}
	sameOutcome(t, what, got.Payload, want.Payload, nil, nil)
}

// TestSingleAndBatchMatchReference drives the frame API (Protect/
// Verify) and the payload API the batch adapter loops over
// (ProtectPayload/VerifyPayload into reused buffers) against the
// reference, in both modes and with and without a replay window, over
// honest, tampered, truncated, replayed, reordered, and oversized
// traffic: frames, verdicts, error strings, and PN state must all
// match.
func TestSingleAndBatchMatchReference(t *testing.T) {
	for _, mode := range []Mode{Confidential, IntegrityOnly} {
		for _, window := range []uint32{0, 8} {
			t.Run(fmt.Sprintf("%s/window=%d", mode, window), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(mode)*10 + int64(window)))
				sciA, sciB := SCIFromMAC(macA(), 1), SCIFromMAC(macB(), 1)
				single, singleRx := securedPair(t, mode)
				batch, batchRx := securedPair(t, mode)
				ref, refRx := newRefSecY(mode, sciA, sak, 0), newRefSecY(mode, sciB, sak, 0)
				refRx.addPeer(sciA, sak, 0)
				singleRx.ReplayWindow, batchRx.ReplayWindow, refRx.ReplayWindow = window, window, window

				var wire, pt []byte
				for round := 0; round < 40; round++ {
					frames := make([]*ethernet.Frame, 1+rng.Intn(30))
					for i := range frames {
						payload := make([]byte, rng.Intn(80))
						if round%10 == 9 && i == 0 {
							// Too large for the MTU once protected.
							payload = make([]byte, ethernet.MaxPayload)
						}
						rng.Read(payload)
						frames[i] = &ethernet.Frame{Dst: macB(), Src: macA(), VLAN: uint16(rng.Intn(3)),
							EtherType: uint16(rng.Intn(1 << 16)), Payload: payload}
					}
					var wires [][]byte
					for i, f := range frames {
						want, wantErr := ref.Protect(f)
						what := fmt.Sprintf("round %d frame %d", round, i)
						got, err := single.Protect(f)
						sameFrame(t, what+" Protect", got, want, err, wantErr)
						wire, err = batch.ProtectPayload(wire, f)
						if wantErr != nil {
							sameOutcome(t, what+" ProtectPayload", wire, nil, err, wantErr)
							continue
						}
						sameOutcome(t, what+" ProtectPayload", wire, want.Payload, err, nil)
						wires = append(wires, want.Payload)
					}
					if single.NextPN() != ref.nexPN || batch.NextPN() != ref.nexPN {
						t.Fatalf("round %d: next PN single %d, batch %d, reference %d", round, single.NextPN(), batch.NextPN(), ref.nexPN)
					}

					for i, w := range deliveries(rng, wires) {
						f := &ethernet.Frame{Dst: macB(), Src: macA(), VLAN: 1, EtherType: ethernet.EtherTypeMACsec, Payload: w}
						want, wantErr := refRx.Verify(f)
						what := fmt.Sprintf("round %d delivery %d", round, i)
						got, err := singleRx.Verify(f)
						sameFrame(t, what+" Verify", got, want, err, wantErr)
						var etherType uint16
						etherType, pt, err = batchRx.VerifyPayload(pt[:0], f.Dst, f.Src, w)
						if wantErr != nil {
							sameOutcome(t, what+" VerifyPayload", pt, nil, err, wantErr)
							continue
						}
						sameOutcome(t, what+" VerifyPayload", pt, want.Payload, err, nil)
						if etherType != want.EtherType {
							t.Fatalf("%s VerifyPayload: EtherType %#x, reference %#x", what, etherType, want.EtherType)
						}
					}
					high := refRx.peers[sciA].highPN
					if singleRx.peers[sciA].highPN != high || batchRx.peers[sciA].highPN != high {
						t.Fatalf("round %d: high PN single %d, batch %d, reference %d",
							round, singleRx.peers[sciA].highPN, batchRx.peers[sciA].highPN, high)
					}
				}
			})
		}
	}
}

// TestReturnedFramesAreCallerOwned checks that the frame API hands out
// fresh memory: a frame returned by Protect or Verify, payload
// included, must be unchanged after further traffic on the same SecYs,
// which reuse their inner, AAD, and MAC-message scratch every call.
func TestReturnedFramesAreCallerOwned(t *testing.T) {
	for _, mode := range []Mode{Confidential, IntegrityOnly} {
		t.Run(mode.String(), func(t *testing.T) {
			a, b := securedPair(t, mode)
			const first = "first frame payload"
			sec, err := a.Protect(appFrame(first))
			if err != nil {
				t.Fatal(err)
			}
			inner, err := b.Verify(sec)
			if err != nil {
				t.Fatal(err)
			}
			secCopy, innerCopy := bytes.Clone(sec.Payload), bytes.Clone(inner.Payload)
			for i := 0; i < 4; i++ {
				// Same length, so reused scratch would be overwritten
				// in place rather than regrown.
				next, err := a.Protect(appFrame(strings.Repeat(string(rune('a'+i)), len(first))))
				if err != nil {
					t.Fatal(err)
				}
				if _, err := b.Verify(next); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(sec.Payload, secCopy) {
				t.Errorf("protected payload changed under later traffic:\n got %x\nwant %x", sec.Payload, secCopy)
			}
			if !bytes.Equal(inner.Payload, innerCopy) {
				t.Errorf("verified payload changed under later traffic: got %q, want %q", inner.Payload, innerCopy)
			}
		})
	}
}
