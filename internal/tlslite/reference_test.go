package tlslite

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"autosec/internal/secchan"
	"autosec/internal/sim"
	"autosec/internal/vcrypto"
)

// refSession is the record layer as it stood before Seal/Open and
// SealBatch/OpenBatch were folded onto one per-record core, kept
// verbatim as an independent oracle: the allocating GCMSeal/GCMOpen
// forms, no shared scratch.
type refSession struct {
	role    Role
	sendKey []byte
	recvKey []byte
	sendSeq uint64
	replay  secchan.Window
}

// Seal protects a payload into a record.
func (s *refSession) Seal(payload []byte) ([]byte, error) {
	s.sendSeq++
	hdr := make([]byte, 13)
	hdr[0] = 23 // application data
	binary.BigEndian.PutUint16(hdr[1:3], 1)
	binary.BigEndian.PutUint64(hdr[3:11], s.sendSeq)
	binary.BigEndian.PutUint16(hdr[11:13], uint16(len(payload)))
	ct, err := vcrypto.GCMSeal(s.sendKey, uint64(s.role), uint32(s.sendSeq), hdr, payload)
	if err != nil {
		return nil, err
	}
	return append(hdr, ct...), nil
}

// Open verifies a record, enforcing the DTLS sliding replay window, and
// returns the payload.
func (s *refSession) Open(record []byte) ([]byte, error) {
	if len(record) < RecordOverhead {
		return nil, fmt.Errorf("tlslite: record too short")
	}
	hdr := record[:13]
	seq := binary.BigEndian.Uint64(hdr[3:11])
	if !s.replay.Check(seq) {
		return nil, fmt.Errorf("tlslite: replayed or too-old record seq %d", seq)
	}
	peer := Client
	if s.role == Client {
		peer = Server
	}
	pt, err := vcrypto.GCMOpen(s.recvKey, uint64(peer), uint32(seq), hdr, record[13:])
	if err != nil {
		return nil, err
	}
	s.replay.Mark(seq)
	return pt, nil
}

// refOf snapshots a fresh session's keys into a reference session.
func refOf(s *Session) *refSession {
	return &refSession{role: s.role, sendKey: s.sendKey, recvKey: s.recvKey, replay: s.replay}
}

// deliveries derives a receive schedule from honestly protected wires:
// in-order records interleaved with replays, reorders, tampered copies,
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
// (Seal/Open) and the batch API (SealBatch/OpenBatch, warmed buffers,
// random batch cuts) against the reference over honest, tampered,
// truncated, replayed, and reordered traffic: records, verdicts, error
// strings, and sequence/window state must all match.
func TestSingleAndBatchMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	single, singleRx, err := Handshake(psk, psk, sim.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	batch, batchRx, err := Handshake(psk, psk, sim.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	ref, refRx := refOf(single), refOf(singleRx)

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
			wires[i], refErr = ref.Seal(p)
			got, err := single.Seal(p)
			sameOutcome(t, fmt.Sprintf("round %d Seal %d", round, i), got, wires[i], err, refErr)
		}
		dst, err = batch.SealBatch(payloads, dst)
		if err != nil {
			t.Fatal(err)
		}
		for i := range wires {
			sameOutcome(t, fmt.Sprintf("round %d SealBatch %d", round, i), dst[i], wires[i], nil, nil)
		}
		if single.sendSeq != ref.sendSeq || batch.sendSeq != ref.sendSeq {
			t.Fatalf("round %d: sendSeq single %d, batch %d, reference %d", round, single.sendSeq, batch.sendSeq, ref.sendSeq)
		}

		delivery := deliveries(rng, wires)
		for start := 0; start < len(delivery); {
			end := min(start+1+rng.Intn(9), len(delivery))
			verdicts = batchRx.OpenBatch(delivery[start:end], verdicts)
			for i, w := range delivery[start:end] {
				want, wantErr := refRx.Open(w)
				what := fmt.Sprintf("round %d delivery %d", round, start+i)
				got, err := singleRx.Open(w)
				sameOutcome(t, what+" Open", got, want, err, wantErr)
				sameOutcome(t, what+" OpenBatch", verdicts[i].Payload, want, verdicts[i].Err, wantErr)
			}
			start = end
		}
		if singleRx.replay != refRx.replay || batchRx.replay != refRx.replay {
			t.Fatalf("round %d: window single %+v, batch %+v, reference %+v", round, singleRx.replay, batchRx.replay, refRx.replay)
		}
	}
}
