// Package macsec implements IEEE 802.1AE MACsec (paper ref [20]) for the
// in-vehicle Ethernet links of §III: per-channel AES-GCM protection with
// a SecTAG carrying the packet number, strict replay protection, both
// confidentiality and integrity-only modes, and an MKA-style key
// agreement (paper ref [25]) that derives and distributes session keys
// (SAKs) from a pre-shared connectivity association key (CAK).
//
// Exercised by experiments tab1, fig4-fig6, exp-vehicle, and exp-zc.
package macsec

import (
	"encoding/binary"
	"fmt"
	"slices"

	"autosec/internal/ethernet"
	"autosec/internal/secchan"
	"autosec/internal/vcrypto"
)

// Mode selects the protection applied to the user data.
type Mode int

const (
	// Confidential encrypts and authenticates (TCI E=1, C=1).
	Confidential Mode = iota
	// IntegrityOnly authenticates without encrypting (E=0).
	IntegrityOnly
)

func (m Mode) String() string {
	if m == Confidential {
		return "confidential"
	}
	return "integrity-only"
}

// SecTAG is the MACsec security tag.
type SecTAG struct {
	AN  uint8  // association number (0–3)
	PN  uint32 // packet number
	SCI uint64 // secure channel identifier
	Enc bool   // E bit: payload encrypted
}

const secTAGLen = 14 // simplified fixed-length tag: flags+AN, PN, SCI
const icvLen = 16

// Overhead is the total bytes MACsec adds to a frame's payload (SecTAG
// plus ICV). The EtherType change is not counted (same width).
const Overhead = secTAGLen + icvLen

// appendTo appends the SecTAG wire form to dst.
func (t *SecTAG) appendTo(dst []byte) []byte {
	var buf [secTAGLen]byte
	flags := t.AN & 0x03
	if t.Enc {
		flags |= 0x08
	}
	buf[0] = flags
	binary.BigEndian.PutUint32(buf[2:6], t.PN)
	binary.BigEndian.PutUint64(buf[6:14], t.SCI)
	return append(dst, buf[:]...)
}

// decode parses the SecTAG at the start of b into t.
func (t *SecTAG) decode(b []byte) error {
	if len(b) < secTAGLen {
		return fmt.Errorf("macsec: short SecTAG")
	}
	t.AN = b[0] & 0x03
	t.Enc = b[0]&0x08 != 0
	t.PN = binary.BigEndian.Uint32(b[2:6])
	t.SCI = binary.BigEndian.Uint64(b[6:14])
	return nil
}

// appendAAD appends the associated data (MACs ‖ SecTAG) to dst.
func appendAAD(dst []byte, dstMAC, srcMAC ethernet.MAC, tag *SecTAG) []byte {
	dst = append(dst, dstMAC[:]...)
	dst = append(dst, srcMAC[:]...)
	return tag.appendTo(dst)
}

// SCIFromMAC builds a secure channel identifier from a MAC and port id,
// as 802.1AE does.
func SCIFromMAC(mac ethernet.MAC, port uint16) uint64 {
	var b [8]byte
	copy(b[:6], mac[:])
	binary.BigEndian.PutUint16(b[6:], port)
	return binary.BigEndian.Uint64(b[:])
}

// SecY is a MACsec entity on one port: it protects egress frames on its
// transmit secure channel and verifies ingress frames from known peer
// channels.
type SecY struct {
	mode  Mode
	sci   uint64
	an    uint8
	sak   []byte
	nexPN uint32
	// rx state per peer SCI
	peers map[uint64]*rxChannel
	// ReplayWindow 0 means strict in-order; >0 tolerates reordering.
	ReplayWindow uint32

	// Per-frame scratch: inner frame, AAD, and integrity-only MAC
	// message buffers reused across frames, never handed to callers.
	innerBuf []byte
	aadBuf   []byte
	msgBuf   []byte
}

type rxChannel struct {
	sak    []byte
	an     uint8
	highPN uint32
}

// NewSecY creates a MACsec entity for a transmit channel identified by
// sci, initially keyed with sak under association number an.
func NewSecY(mode Mode, sci uint64, sak []byte, an uint8) (*SecY, error) {
	if len(sak) != 16 && len(sak) != 32 {
		return nil, fmt.Errorf("macsec: SAK must be 16 or 32 bytes, got %d", len(sak))
	}
	return &SecY{
		mode: mode, sci: sci, an: an & 3,
		sak:   append([]byte(nil), sak...),
		nexPN: 1,
		peers: make(map[uint64]*rxChannel),
	}, nil
}

// AddPeer registers a receive channel keyed with the peer's SAK.
func (s *SecY) AddPeer(sci uint64, sak []byte, an uint8) error {
	if len(sak) != 16 && len(sak) != 32 {
		return fmt.Errorf("macsec: peer SAK length %d", len(sak))
	}
	s.peers[sci] = &rxChannel{sak: append([]byte(nil), sak...), an: an & 3}
	return nil
}

// RekeyTx installs a new transmit SAK under the next association number
// and resets the packet number — the operation MKA performs as PN
// exhaustion approaches.
func (s *SecY) RekeyTx(sak []byte) error {
	if len(sak) != 16 && len(sak) != 32 {
		return fmt.Errorf("macsec: SAK length %d", len(sak))
	}
	s.sak = append([]byte(nil), sak...)
	s.an = (s.an + 1) & 3
	s.nexPN = 1
	return nil
}

// NextPN exposes the transmit packet number (for rekey policy tests).
func (s *SecY) NextPN() uint32 { return s.nexPN }

// NeedRekey reports whether the transmit packet number has crossed the
// given fraction of its space — the trigger MKA uses to distribute a
// fresh SAK before PN exhaustion would halt transmission.
func (s *SecY) NeedRekey(fraction float64) bool {
	if fraction <= 0 {
		fraction = 0.75
	}
	return float64(s.nexPN) >= fraction*float64(^uint32(0))
}

// Protect wraps an Ethernet frame in MACsec: the original EtherType and
// payload become the secure data; the SecTAG is authenticated as
// associated data together with the MAC addresses. The returned frame
// and its payload are freshly allocated.
func (s *SecY) Protect(f *ethernet.Frame) (*ethernet.Frame, error) {
	wire, err := s.ProtectPayload(nil, f)
	if err != nil {
		return nil, err
	}
	return &ethernet.Frame{
		Dst: f.Dst, Src: f.Src, VLAN: f.VLAN,
		EtherType: ethernet.EtherTypeMACsec,
		Payload:   wire,
	}, nil
}

// ProtectPayload is the one protect implementation behind Protect and
// the secchan suite adapter: it protects f, consuming one PN, and
// returns only the MACsec frame payload (SecTAG ‖ body), built in dst's
// backing array.
func (s *SecY) ProtectPayload(dst []byte, f *ethernet.Frame) ([]byte, error) {
	if s.nexPN == 0 {
		return nil, fmt.Errorf("macsec: transmit PN exhausted; rekey required")
	}
	tag := SecTAG{AN: s.an, PN: s.nexPN, SCI: s.sci, Enc: s.mode == Confidential}
	s.nexPN++

	inner := s.innerBuf[:0]
	var et [2]byte
	binary.BigEndian.PutUint16(et[:], f.EtherType)
	inner = append(append(inner, et[:]...), f.Payload...)
	s.innerBuf = inner[:0]

	aad := appendAAD(s.aadBuf[:0], f.Dst, f.Src, &tag)
	s.aadBuf = aad[:0]

	out := tag.appendTo(slices.Grow(dst[:0], Overhead+len(inner)))
	var err error
	if s.mode == Confidential {
		out, err = vcrypto.GCMSealInto(out, s.sak, tag.SCI, tag.PN, aad, inner)
	} else {
		msg := append(append(s.msgBuf[:0], aad...), inner...)
		s.msgBuf = msg[:0]
		out = append(out, inner...)
		out, err = vcrypto.GCMTagInto(out, s.sak, tag.SCI, tag.PN, msg)
	}
	if err != nil {
		return nil, err
	}
	wrapped := ethernet.Frame{EtherType: ethernet.EtherTypeMACsec, Payload: out}
	if err := wrapped.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

// Verify unwraps a MACsec frame from a registered peer, enforcing
// replay protection, and returns the restored inner frame, freshly
// allocated.
func (s *SecY) Verify(f *ethernet.Frame) (*ethernet.Frame, error) {
	if f.EtherType != ethernet.EtherTypeMACsec {
		return nil, fmt.Errorf("macsec: not a MACsec frame (ethertype %#x)", f.EtherType)
	}
	etherType, payload, err := s.VerifyPayload(nil, f.Dst, f.Src, f.Payload)
	if err != nil {
		return nil, err
	}
	return &ethernet.Frame{
		Dst: f.Dst, Src: f.Src, VLAN: f.VLAN,
		EtherType: etherType,
		Payload:   payload,
	}, nil
}

// VerifyPayload is the one verify implementation behind Verify and the
// secchan suite adapter: it verifies one MACsec frame payload (wire)
// received on a frame addressed dstMAC←srcMAC with the MACsec
// EtherType, returning the inner EtherType and appending the restored
// inner payload (what follows the inner EtherType) to dst.
func (s *SecY) VerifyPayload(dst []byte, dstMAC, srcMAC ethernet.MAC, wire []byte) (uint16, []byte, error) {
	var tag SecTAG
	if err := tag.decode(wire); err != nil {
		return 0, nil, err
	}
	ch, ok := s.peers[tag.SCI]
	if !ok {
		return 0, nil, fmt.Errorf("macsec: unknown SCI %#x", tag.SCI)
	}
	if tag.AN != ch.an {
		return 0, nil, fmt.Errorf("macsec: association number %d, expected %d", tag.AN, ch.an)
	}
	// Replay check before crypto, per 802.1AE.
	if !s.pnAcceptable(ch, tag.PN) {
		return 0, nil, fmt.Errorf("macsec: replay: PN %d not above %d (window %d)", tag.PN, ch.highPN, s.ReplayWindow)
	}

	body := wire[secTAGLen:]
	aad := appendAAD(s.aadBuf[:0], dstMAC, srcMAC, &tag)
	s.aadBuf = aad[:0]
	var inner []byte
	if tag.Enc {
		var err error
		if inner, err = vcrypto.GCMOpenInto(s.innerBuf[:0], ch.sak, tag.SCI, tag.PN, aad, body); err != nil {
			return 0, nil, err
		}
		s.innerBuf = inner[:0]
	} else {
		if len(body) < icvLen {
			return 0, nil, fmt.Errorf("macsec: short integrity frame")
		}
		inner = body[:len(body)-icvLen]
		icv := body[len(body)-icvLen:]
		msg := append(append(s.msgBuf[:0], aad...), inner...)
		s.msgBuf = msg[:0]
		if !vcrypto.GCMVerifyTag(ch.sak, tag.SCI, tag.PN, msg, icv) {
			return 0, nil, fmt.Errorf("macsec: ICV verification failed")
		}
	}
	if len(inner) < 2 {
		return 0, nil, fmt.Errorf("macsec: inner frame too short")
	}
	if tag.PN > ch.highPN {
		ch.highPN = tag.PN
	}
	return binary.BigEndian.Uint16(inner[0:2]), append(dst, inner[2:]...), nil
}

// pnAcceptable applies the 802.1AE replay check through the secchan
// kernel, which computes it in 64 bits — in uint32 arithmetic
// pn+window wraps for PNs within window of 2^32, rejecting exactly the
// fresh frames sent as the channel approaches PN exhaustion (the
// moment MKA rekeys under load).
func (s *SecY) pnAcceptable(ch *rxChannel, pn uint32) bool {
	return secchan.LenientAccept(uint64(ch.highPN), uint64(pn), uint64(s.ReplayWindow))
}
