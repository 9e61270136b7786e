package ipsec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"autosec/internal/secchan"
	"autosec/internal/vcrypto"
)

// refSA is the ESP path as it stood before Encapsulate/Decapsulate and
// the batch forms were folded onto one per-packet core, kept verbatim
// as an independent oracle: the allocating GCMSeal/GCMOpen forms, no
// shared scratch.
type refSA struct {
	SPI     uint32
	key     []byte
	sendSeq uint32

	replay     secchan.Window
	WindowSize uint32
}

func errSeqExhausted() error {
	return fmt.Errorf("ipsec: sequence space exhausted; rekey the SA")
}

// Encapsulate protects an inner packet into an ESP packet.
func (sa *refSA) Encapsulate(inner []byte) ([]byte, error) {
	if sa.sendSeq == ^uint32(0) {
		return nil, errSeqExhausted()
	}
	sa.sendSeq++
	hdr := make([]byte, 8)
	binary.BigEndian.PutUint32(hdr[0:4], sa.SPI)
	binary.BigEndian.PutUint32(hdr[4:8], sa.sendSeq)
	ct, err := vcrypto.GCMSeal(sa.key, uint64(sa.SPI), sa.sendSeq, hdr, inner)
	if err != nil {
		return nil, err
	}
	return append(hdr, ct...), nil
}

// Decapsulate verifies an ESP packet and returns the inner packet.
func (sa *refSA) Decapsulate(pkt []byte) ([]byte, error) {
	if len(pkt) < Overhead {
		return nil, fmt.Errorf("ipsec: packet shorter than ESP overhead")
	}
	spi := binary.BigEndian.Uint32(pkt[0:4])
	seq := binary.BigEndian.Uint32(pkt[4:8])
	if spi != sa.SPI {
		return nil, fmt.Errorf("ipsec: SPI %#x does not match SA %#x", spi, sa.SPI)
	}
	// WindowSize is public and may be tuned after NewSA; sync it into
	// the kernel window before every check.
	sa.replay.Size = sa.WindowSize
	if !sa.replay.Check(uint64(seq)) {
		return nil, fmt.Errorf("ipsec: anti-replay rejected seq %d", seq)
	}
	inner, err := vcrypto.GCMOpen(sa.key, uint64(sa.SPI), seq, pkt[:8], pkt[8:])
	if err != nil {
		return nil, err
	}
	sa.replay.Mark(uint64(seq))
	return inner, nil
}

// deliveries derives a receive schedule from honestly protected wires:
// in-order packets interleaved with replays, reorders, tampered copies,
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
// (Encapsulate/Decapsulate) and the batch API (EncapsulateBatch/
// DecapsulateBatch, warmed buffers, random batch cuts) against the
// reference over honest, tampered, truncated, replayed, and reordered
// traffic, at two window sizes and across sequence exhaustion: packets,
// verdicts, error strings, and sequence/window state must all match.
func TestSingleAndBatchMatchReference(t *testing.T) {
	for _, window := range []uint32{64, 16} {
		t.Run(fmt.Sprintf("window=%d", window), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(window)))
			single, singleRx := saPair(t)
			batch, batchRx := saPair(t)
			ref := &refSA{SPI: single.SPI, key: key}
			refRx := &refSA{SPI: single.SPI, key: key, WindowSize: window}
			singleRx.WindowSize, batchRx.WindowSize = window, window

			var dst [][]byte
			var verdicts []secchan.Verdict
			for round := 0; round < 40; round++ {
				if round == 39 {
					// The last round runs into sequence exhaustion.
					ref.sendSeq = ^uint32(0) - 5
					single.sendSeq, batch.sendSeq = ref.sendSeq, ref.sendSeq
				}
				inners := make([][]byte, 1+rng.Intn(40))
				for i := range inners {
					inners[i] = make([]byte, rng.Intn(80))
					rng.Read(inners[i])
				}
				var wires [][]byte
				var refErr error
				for i, in := range inners {
					w, err := ref.Encapsulate(in)
					got, gotErr := single.Encapsulate(in)
					sameOutcome(t, fmt.Sprintf("round %d Encapsulate %d", round, i), got, w, gotErr, err)
					if err != nil {
						refErr = err
						break
					}
					wires = append(wires, w)
				}
				var err error
				dst, err = batch.EncapsulateBatch(inners, dst)
				sameOutcome(t, fmt.Sprintf("round %d EncapsulateBatch", round), nil, nil, err, refErr)
				if len(dst) != len(wires) {
					t.Fatalf("round %d: EncapsulateBatch returned %d packets, reference %d", round, len(dst), len(wires))
				}
				for i := range wires {
					sameOutcome(t, fmt.Sprintf("round %d EncapsulateBatch %d", round, i), dst[i], wires[i], nil, nil)
				}
				if single.sendSeq != ref.sendSeq || batch.sendSeq != ref.sendSeq {
					t.Fatalf("round %d: sendSeq single %d, batch %d, reference %d", round, single.sendSeq, batch.sendSeq, ref.sendSeq)
				}
				if len(wires) == 0 {
					continue
				}

				delivery := deliveries(rng, wires)
				for start := 0; start < len(delivery); {
					end := min(start+1+rng.Intn(9), len(delivery))
					verdicts = batchRx.DecapsulateBatch(delivery[start:end], verdicts)
					for i, w := range delivery[start:end] {
						want, wantErr := refRx.Decapsulate(w)
						what := fmt.Sprintf("round %d delivery %d", round, start+i)
						got, err := singleRx.Decapsulate(w)
						sameOutcome(t, what+" Decapsulate", got, want, err, wantErr)
						sameOutcome(t, what+" DecapsulateBatch", verdicts[i].Payload, want, verdicts[i].Err, wantErr)
					}
					start = end
				}
				if singleRx.replay != refRx.replay || batchRx.replay != refRx.replay {
					t.Fatalf("round %d: window single %+v, batch %+v, reference %+v", round, singleRx.replay, batchRx.replay, refRx.replay)
				}
			}
		})
	}
}
