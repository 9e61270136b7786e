package macsec

import (
	"testing"

	"autosec/internal/ethernet"
	"autosec/internal/vcrypto"
)

// FuzzVerify throws arbitrary bytes at the MACsec receive path: it must
// never panic, and it must decide every input exactly as the
// pre-refactor reference receiver does — same verdict, same error,
// same restored frame, same PN state — so it rejects everything not
// produced by Protect.
func FuzzVerify(f *testing.F) {
	key := vcrypto.DeriveKey([]byte("fuzz-cak-material"), "sak", "f", 16)
	sciA := SCIFromMAC(ethernet.MAC{2, 0, 0, 0, 0, 1}, 1)
	rx, err := NewSecY(Confidential, SCIFromMAC(ethernet.MAC{2, 0, 0, 0, 0, 2}, 1), key, 0)
	if err != nil {
		f.Fatal(err)
	}
	if err := rx.AddPeer(sciA, key, 0); err != nil {
		f.Fatal(err)
	}
	ref := newRefSecY(Confidential, SCIFromMAC(ethernet.MAC{2, 0, 0, 0, 0, 2}, 1), key, 0)
	ref.addPeer(sciA, key, 0)
	tx, err := NewSecY(Confidential, sciA, key, 0)
	if err != nil {
		f.Fatal(err)
	}
	valid, err := tx.Protect(&ethernet.Frame{
		Dst: ethernet.MAC{2, 0, 0, 0, 0, 2}, Src: ethernet.MAC{2, 0, 0, 0, 0, 1},
		EtherType: ethernet.EtherTypeApp, Payload: []byte("seed"),
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Payload)
	f.Add([]byte{})
	f.Add(make([]byte, secTAGLen))
	f.Fuzz(func(t *testing.T, payload []byte) {
		frame := &ethernet.Frame{
			Dst: ethernet.MAC{2, 0, 0, 0, 0, 2}, Src: ethernet.MAC{2, 0, 0, 0, 0, 1},
			EtherType: ethernet.EtherTypeMACsec, Payload: payload,
		}
		// Mutated inputs must not verify (the seed input may verify
		// once, then its PN is consumed) — the reference decides.
		got, err := rx.Verify(frame)
		want, wantErr := ref.Verify(frame)
		sameFrame(t, "Verify", got, want, err, wantErr)
		if rx.peers[sciA].highPN != ref.peers[sciA].highPN {
			t.Fatalf("high PN %d, reference %d", rx.peers[sciA].highPN, ref.peers[sciA].highPN)
		}
	})
}

// FuzzUnmarshalMKPDU hardens the key-agreement PDU parser.
func FuzzUnmarshalMKPDU(f *testing.F) {
	p, err := NewParticipant("srv", "ca", []byte("pre-shared-cak-16bytes!"), 1)
	if err != nil {
		f.Fatal(err)
	}
	pdu, err := p.DistributeSAK(1)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(pdu.Marshal())
	f.Add([]byte{})
	f.Add([]byte{0, 2, 'c', 'a'})
	f.Fuzz(func(t *testing.T, data []byte) {
		parsed, err := UnmarshalMKPDU(data)
		if err != nil {
			return
		}
		// Anything parsed must survive a marshal round trip.
		round, err := UnmarshalMKPDU(parsed.Marshal())
		if err != nil {
			t.Fatalf("accepted PDU failed round trip: %v", err)
		}
		if round.CKN != parsed.CKN || round.SAKID != parsed.SAKID {
			t.Fatal("round trip not stable")
		}
	})
}
