// Package secoc implements AUTOSAR Secure Onboard Communication
// (paper ref [18]): authentication of PDUs on CAN or Ethernet with a
// truncated AES-CMAC and a freshness value to stop replay. The secured
// PDU layout follows the specification: payload ‖ truncated freshness ‖
// truncated MAC, where the MAC covers data-ID ‖ payload ‖ full
// freshness. SECOC provides *authenticity only* — no confidentiality —
// which is one of the S1 disadvantages the paper lists.
//
// Exercised by experiments tab1, fig4, exp-vehicle, ablate-mac, and
// ablate-fv.
package secoc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"autosec/internal/secchan"
	"autosec/internal/vcrypto"
)

// Config fixes the profile of a SECOC channel.
type Config struct {
	// DataID distinguishes message streams; it is bound into the MAC.
	DataID uint16
	// MACBits is the truncated MAC length (24–64 typical; profile 1
	// uses 24 bits on classic CAN, larger on FD/Ethernet).
	MACBits int
	// FreshnessBits is how many low-order freshness bits travel in the
	// PDU (profile 1 uses 8).
	FreshnessBits int
	// AcceptWindow is how far ahead of the receiver's counter a
	// reconstructed freshness value may be (tolerates lost PDUs).
	AcceptWindow uint64
}

// DefaultConfig is SECOC profile-1-like: 24-bit MAC, 8 freshness bits,
// window 64 — sized to fit alongside data in small CAN payloads.
func DefaultConfig(dataID uint16) Config {
	return Config{DataID: dataID, MACBits: 24, FreshnessBits: 8, AcceptWindow: 64}
}

func (c Config) validate() error {
	if c.MACBits <= 0 || c.MACBits > 128 || c.MACBits%8 != 0 {
		return fmt.Errorf("secoc: MAC bits %d", c.MACBits)
	}
	if c.FreshnessBits <= 0 || c.FreshnessBits > 64 || c.FreshnessBits%8 != 0 {
		return fmt.Errorf("secoc: freshness bits %d", c.FreshnessBits)
	}
	return nil
}

// Overhead returns the bytes SECOC adds to each payload.
func (c Config) Overhead() int { return c.FreshnessBits/8 + c.MACBits/8 }

// Sender protects outgoing PDUs. Not safe for concurrent use (each
// stream belongs to one simulated ECU task).
type Sender struct {
	cfg   Config
	key   []byte
	fv    uint64 // full monotonic freshness counter
	mac   macScratch
	batch batchScratch
}

// NewSender creates a protecting endpoint.
func NewSender(cfg Config, key []byte) (*Sender, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(key) != 16 {
		return nil, fmt.Errorf("secoc: key must be 16 bytes")
	}
	return &Sender{cfg: cfg, key: append([]byte(nil), key...)}, nil
}

// Protect builds the secured PDU for payload in a freshly allocated
// slice, consuming one freshness value.
func (s *Sender) Protect(payload []byte) ([]byte, error) {
	return s.protectPDU(nil, payload, nil)
}

// protectPDU is the one PDU-protect implementation behind Protect and
// ProtectBatch: it consumes one freshness value and appends payload ‖
// truncated freshness ‖ truncated MAC to dst. tag, when non-nil, is the
// full CMAC over the PDU's MAC message precomputed by ProtectBatch;
// otherwise the MAC is computed here.
func (s *Sender) protectPDU(dst, payload []byte, tag *[16]byte) ([]byte, error) {
	s.fv++
	var mac []byte
	if tag != nil {
		mac = tag[:s.cfg.MACBits/8]
	} else {
		var err error
		if mac, err = s.mac.compute(s.key, s.cfg, payload, s.fv); err != nil {
			return nil, err
		}
	}
	var fvBuf [8]byte
	binary.BigEndian.PutUint64(fvBuf[:], s.fv)
	out := append(slices.Grow(dst, len(payload)+s.cfg.Overhead()), payload...)
	out = append(out, fvBuf[8-s.cfg.FreshnessBits/8:]...)
	return append(out, mac...), nil
}

// FV exposes the current counter (tests, persistence).
func (s *Sender) FV() uint64 { return s.fv }

// Receiver verifies secured PDUs.
type Receiver struct {
	cfg   Config
	key   []byte
	fresh secchan.Freshness
	mac   macScratch
	batch batchScratch
}

// NewReceiver creates a verifying endpoint.
func NewReceiver(cfg Config, key []byte) (*Receiver, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(key) != 16 {
		return nil, fmt.Errorf("secoc: key must be 16 bytes")
	}
	return &Receiver{
		cfg:   cfg,
		key:   append([]byte(nil), key...),
		fresh: secchan.Freshness{Bits: cfg.FreshnessBits, Window: cfg.AcceptWindow},
	}, nil
}

// Verify checks a secured PDU and returns the authenticated payload in
// a freshly allocated slice. The receiver reconstructs the full
// freshness value from the truncated bits via the secchan kernel's
// candidate search — forward from its own counter within the
// acceptance window; replayed or stale PDUs fail because no in-window
// counter matches both the truncated bits and the MAC.
func (r *Receiver) Verify(pdu []byte) ([]byte, error) {
	return r.verifyPDU(nil, pdu, predicted{})
}

// predicted offers verifyPDU up to two precomputed full CMAC tags, each
// valid for one freshness candidate; a nil tag offers nothing. Only
// VerifyBatch predicts — the single-frame walk computes every MAC it
// needs.
type predicted struct {
	cand [2]uint64
	tag  [2]*[16]byte
}

// verifyPDU is the one verification implementation behind Verify and
// VerifyBatch: the serial candidate walk, which takes a candidate's MAC
// from pred when one was predicted and computes it otherwise, so
// predictions only move crypto into the batched kernel. An accepted
// PDU's payload is appended to dst.
func (r *Receiver) verifyPDU(dst, pdu []byte, pred predicted) ([]byte, error) {
	oh := r.cfg.Overhead()
	if len(pdu) < oh {
		return nil, fmt.Errorf("secoc: PDU shorter than overhead (%d < %d)", len(pdu), oh)
	}
	macBytes := r.cfg.MACBits / 8
	payload := pdu[:len(pdu)-oh]
	trunc := truncFV(pdu[len(pdu)-oh : len(pdu)-macBytes])
	mac := pdu[len(pdu)-macBytes:]

	// The iterator form keeps the reject path allocation-free: the
	// ablation sweeps feed this receiver thousands of forgeries, and a
	// Reconstruct closure would escape to the heap on every PDU.
	it := r.fresh.Candidates(trunc)
	for it.Next() {
		var want []byte
		switch cand := it.Value(); {
		case pred.tag[0] != nil && cand == pred.cand[0]:
			want = pred.tag[0][:macBytes]
		case pred.tag[1] != nil && cand == pred.cand[1]:
			want = pred.tag[1][:macBytes]
		default:
			var err error
			if want, err = r.mac.compute(r.key, r.cfg, payload, cand); err != nil {
				return nil, err
			}
		}
		if secchan.VerifyTrunc(want, mac) {
			it.Commit()
			return append(dst, payload...), nil
		}
	}
	return nil, errVerifyFailed
}

// errVerifyFailed is a sentinel: Verify rejects thousands of forged or
// replayed PDUs per ablation sweep, and formatting a fresh error for
// each dominated the package's allocations.
var errVerifyFailed = errors.New("secoc: verification failed (replay, forgery, or window exceeded)")

// LastFV exposes the receiver's counter.
func (r *Receiver) LastFV() uint64 { return r.fresh.Last() }

// macScratch holds the reusable message and tag buffers of one
// endpoint, so the per-PDU MAC computation allocates nothing. Endpoints
// are documented as single-task objects, so the buffers need no lock.
type macScratch struct {
	buf []byte
}

// compute returns the truncated CMAC over data-ID || payload || full
// freshness. The result aliases the endpoint's scratch buffer and is
// only valid until the next compute call; both call sites either copy
// it (protectPDU appends) or finish with it immediately (verifyPDU
// compares).
func (m *macScratch) compute(key []byte, cfg Config, payload []byte, fv uint64) ([]byte, error) {
	n := macMsgLen(payload)
	macBytes := cfg.MACBits / 8
	if cap(m.buf) < n+macBytes {
		m.buf = make([]byte, n+macBytes)
	}
	tag, err := vcrypto.CMAC(key, putMACMsg(m.buf, cfg.DataID, payload, fv))
	if err != nil {
		return nil, err
	}
	mac := m.buf[n : n+macBytes]
	copy(mac, tag[:])
	return mac, nil
}

// macMsgLen is the length of the MAC message for payload.
func macMsgLen(payload []byte) int { return 2 + len(payload) + 8 }

// putMACMsg writes the MAC message data-ID ‖ payload ‖ full freshness
// at the start of buf and returns it.
func putMACMsg(buf []byte, dataID uint16, payload []byte, fv uint64) []byte {
	msg := buf[:macMsgLen(payload)]
	binary.BigEndian.PutUint16(msg[0:2], dataID)
	copy(msg[2:], payload)
	binary.BigEndian.PutUint64(msg[2+len(payload):], fv)
	return msg
}

// truncFV folds the big-endian truncated freshness bytes into a value.
func truncFV(b []byte) uint64 {
	var v uint64
	for _, x := range b {
		v = v<<8 | uint64(x)
	}
	return v
}
