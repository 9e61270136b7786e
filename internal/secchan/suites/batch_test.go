package suites

import (
	"bytes"
	"fmt"
	"testing"

	"autosec/internal/secchan"
	"autosec/internal/sim"
)

// batchEntries returns every suite with a native batch path, including
// the integrity-only MACsec variant that is not a registry row.
func batchEntries() []secchan.Entry {
	entries := append(secchan.Registry{}, Registry()...)
	integ := macsecMeta
	integ.Name = "MACsec-integ"
	integ.Props.Conf = false
	integ.New = NewMACsecIntegrityOnly
	return append(entries, integ)
}

// newTwin builds two identically-keyed instances of a suite: one driven
// through the batch APIs, one through the single-frame APIs. macBits
// overrides the SECOC MAC truncation (0 = profile default).
func newTwin(t *testing.T, e secchan.Entry, macBits int) (batch, serial secchan.Suite) {
	t.Helper()
	p := func() secchan.Params { return secchan.Params{Key: testKey, RNG: sim.NewRNG(7), MACBits: macBits} }
	b, err := e.New(p())
	if err != nil {
		t.Fatalf("%s: New: %v", e.Name, err)
	}
	s, err := e.New(p())
	if err != nil {
		t.Fatalf("%s: New: %v", e.Name, err)
	}
	return b, s
}

// delivered is one frame of a test delivery schedule with the outcome
// an independent model predicts for it.
type delivered struct {
	wire    []byte
	payload []byte // the authenticated payload when accepted
	ok      bool
}

// checkVerdicts requires batch verdicts to match the model's
// predictions and the single-frame twin's results frame by frame.
func checkVerdicts(t *testing.T, name string, first int, verdicts []secchan.Verdict, want []delivered, serial secchan.Suite) {
	t.Helper()
	for i, d := range want {
		if gotOK := verdicts[i].Err == nil; gotOK != d.ok {
			t.Fatalf("%s: frame %d: batch err=%v, model accepts=%v", name, first+i, verdicts[i].Err, d.ok)
		}
		if d.ok && !bytes.Equal(verdicts[i].Payload, d.payload) {
			t.Fatalf("%s: frame %d payload: batch %x, sent %x", name, first+i, verdicts[i].Payload, d.payload)
		}
		pt, err := serial.Verify(d.wire)
		if fmt.Sprint(err) != fmt.Sprint(verdicts[i].Err) || !bytes.Equal(pt, verdicts[i].Payload) {
			t.Fatalf("%s: frame %d: batch (%x, %v), single-frame (%x, %v)", name, first+i, verdicts[i].Payload, verdicts[i].Err, pt, err)
		}
	}
}

// wantStats is the accounting an independent count of the traffic
// predicts.
func wantStats(overhead int, payloads [][]byte, deliveries []delivered) secchan.Stats {
	var st secchan.Stats
	for _, p := range payloads {
		st.RecordProtect(len(p), len(p)+overhead)
	}
	for _, d := range deliveries {
		st.RecordVerify(d.ok)
	}
	return st
}

// TestBatchMatchesSingleFrame drives every native batch suite through
// the same traffic — honest frames, a corrupted frame, a truncated
// frame, and a replayed frame mid-batch — and checks the batch path
// against an independent expectation: each wire is the payload plus
// the suite's fixed overhead, each verdict and payload is what the
// sender sent, and Stats count exactly that traffic. The single-frame
// twin must agree too, error strings included, so the batch-only code
// (SECOC's tag predictions, the replay-window screens, the adapters'
// stats replay) cannot drift from the per-frame cores.
func TestBatchMatchesSingleFrame(t *testing.T) {
	for _, e := range batchEntries() {
		t.Run(e.Name, func(t *testing.T) {
			bs, ss := newTwin(t, e, 0)
			oh := bs.OverheadBytes()

			payloads := [][]byte{
				{1, 2, 3, 4}, {}, {5}, bytes.Repeat([]byte{0xA5}, 64),
				{9, 8, 7}, bytes.Repeat([]byte{0x11}, 200),
			}
			wires, err := secchan.ProtectBatch(bs, payloads, nil)
			if err != nil {
				t.Fatalf("ProtectBatch: %v", err)
			}
			for i, p := range payloads {
				if len(wires[i]) != len(p)+oh {
					t.Fatalf("wire %d: %d bytes for a %d-byte payload, want overhead %d", i, len(wires[i]), len(p), oh)
				}
				serial, err := ss.Protect(p)
				if err != nil {
					t.Fatalf("Protect #%d: %v", i, err)
				}
				if !bytes.Equal(wires[i], serial) {
					t.Fatalf("wire %d: batch %x, serial %x", i, wires[i], serial)
				}
			}

			// Mixed delivery: in-order frames with a corrupted MAC, a
			// truncated frame, and a replay in the middle.
			corrupt := append([]byte(nil), wires[1]...)
			corrupt[len(corrupt)-1] ^= 0xFF
			delivery := []delivered{
				{wires[0], payloads[0], true},
				{corrupt, nil, false},
				{wires[1], payloads[1], true},
				{wires[0], nil, false}, // replay
				{wires[2][:1], nil, false},
				{wires[3], payloads[3], true},
				{wires[4], payloads[4], true},
				{wires[5], payloads[5], true},
			}
			batch := make([][]byte, len(delivery))
			for i, d := range delivery {
				batch[i] = d.wire
			}
			verdicts := secchan.VerifyBatch(bs, batch, nil)
			if len(verdicts) != len(delivery) {
				t.Fatalf("got %d verdicts for %d wires", len(verdicts), len(delivery))
			}
			checkVerdicts(t, e.Name, 0, verdicts, delivery, ss)
			if want := wantStats(oh, payloads, delivery); *bs.Stats() != want || *ss.Stats() != want {
				t.Fatalf("stats:\nbatch  %+v\nserial %+v\nwant   %+v", *bs.Stats(), *ss.Stats(), want)
			}

			// Warmed-buffer second round must stay byte-identical.
			wires2, err := secchan.ProtectBatch(bs, payloads, wires)
			if err != nil {
				t.Fatalf("warmed ProtectBatch: %v", err)
			}
			for i, p := range payloads {
				want, err := ss.Protect(p)
				if err != nil {
					t.Fatalf("Protect round 2 #%d: %v", i, err)
				}
				if !bytes.Equal(wires2[i], want) {
					t.Fatalf("warmed wire %d: batch %x, serial %x", i, wires2[i], want)
				}
			}
			if want := wantStats(oh, append(payloads, payloads...), delivery); *bs.Stats() != want || *ss.Stats() != want {
				t.Fatalf("stats after warmed round:\nbatch  %+v\nserial %+v\nwant   %+v", *bs.Stats(), *ss.Stats(), want)
			}
		})
	}
}

// TestSingleFrameResultsAreCallerOwned checks, for every suite, that a
// wire returned by Protect and a payload returned by Verify are
// unchanged after further single-frame and batch traffic on the same
// suite: the single-frame API must hand out fresh memory, never the
// endpoint scratch the per-frame cores reuse.
func TestSingleFrameResultsAreCallerOwned(t *testing.T) {
	for _, e := range batchEntries() {
		t.Run(e.Name, func(t *testing.T) {
			s, err := e.New(secchan.Params{Key: testKey, RNG: sim.NewRNG(7)})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			first := []byte("first payload, kept by the caller")
			wire, err := s.Protect(first)
			if err != nil {
				t.Fatal(err)
			}
			pt, err := s.Verify(wire)
			if err != nil {
				t.Fatal(err)
			}
			wireCopy, ptCopy := bytes.Clone(wire), bytes.Clone(pt)

			var wires [][]byte
			var verdicts []secchan.Verdict
			for i := 0; i < 4; i++ {
				// Same length, so reused scratch would be overwritten in
				// place rather than regrown.
				later := bytes.Repeat([]byte{byte(0xC0 + i)}, len(first))
				w, err := s.Protect(later)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := s.Verify(w); err != nil {
					t.Fatal(err)
				}
				if wires, err = secchan.ProtectBatch(s, [][]byte{later, later}, wires); err != nil {
					t.Fatal(err)
				}
				verdicts = secchan.VerifyBatch(s, wires, verdicts)
			}
			if !bytes.Equal(wire, wireCopy) {
				t.Errorf("Protect result changed under later traffic:\n got %x\nwant %x", wire, wireCopy)
			}
			if !bytes.Equal(pt, ptCopy) {
				t.Errorf("Verify result changed under later traffic: got %q, want %q", pt, ptCopy)
			}
		})
	}
}

// TestProtectBatchZeroAlloc pins the batch protect path's steady-state
// allocation behaviour: once the suite scratch and the caller's wire
// buffers have grown to size, protecting a burst must not allocate at
// all, for every native batch suite.
func TestProtectBatchZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool deliberately drops items under the race detector, so the nonce pool allocates")
	}
	for _, e := range batchEntries() {
		t.Run(e.Name, func(t *testing.T) {
			s, err := e.New(secchan.Params{Key: testKey, RNG: sim.NewRNG(7)})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			payloads := make([][]byte, 64)
			for i := range payloads {
				payloads[i] = bytes.Repeat([]byte{byte(i)}, 64)
			}
			var wires [][]byte
			wires, err = secchan.ProtectBatch(s, payloads, wires)
			if err != nil {
				t.Fatalf("warmup ProtectBatch: %v", err)
			}
			avg := testing.AllocsPerRun(50, func() {
				wires, err = secchan.ProtectBatch(s, payloads, wires)
			})
			if err != nil {
				t.Fatalf("ProtectBatch: %v", err)
			}
			if avg != 0 {
				t.Fatalf("warmed ProtectBatch allocates %.2f times per burst, want 0", avg)
			}
		})
	}
}

// FuzzBatchVerifyEquivalence fuzzes every suite's native batch path
// against an independent model: the fuzzer picks a delivery schedule
// over protected frames — reorderings, duplicates, corruptions — and an
// arbitrary batch segmentation. Each verdict must be what the naive
// replay model of the protocol (replayModel) predicts, each accepted
// payload what the sender sent, a corrupted frame must always fail,
// and Stats must count exactly that traffic; the single-frame twin must
// agree frame by frame. SECOC runs with 64-bit MACs here so that a
// corrupted PDU is rejected with certainty — with the profile's 24-bit
// MAC, one forgery in 2^24 verifies, which a long fuzz run would hit.
// Wired into the CI fuzz-smoke job.
func FuzzBatchVerifyEquivalence(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5})
	f.Add([]byte{0, 0, 1, 1, 2, 2})
	f.Add([]byte{5, 3, 4, 1, 2})
	f.Add([]byte{0x80, 1, 0x82, 3, 4})  // corruptions mixed in
	f.Add([]byte{0, 90, 1, 91, 2, 255}) // window jumps
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, e := range batchEntries() {
			bs, ss := newTwin(t, e, 64)
			const maxSeq = 96
			payloads := make([][]byte, maxSeq)
			for i := range payloads {
				payloads[i] = []byte{byte(i), byte(i >> 8)}
			}
			wires, err := secchan.ProtectBatch(bs, payloads, nil)
			if err != nil {
				t.Fatalf("%s: ProtectBatch: %v", e.Name, err)
			}
			for i, p := range payloads {
				want, err := ss.Protect(p)
				if err != nil {
					t.Fatalf("%s: Protect #%d: %v", e.Name, i, err)
				}
				if !bytes.Equal(wires[i], want) {
					t.Fatalf("%s: wire %d: batch %x, serial %x", e.Name, i, wires[i], want)
				}
			}

			// Decode deliveries: low bits pick the frame, the high bit
			// corrupts a copy of it. The model sees only genuine frames.
			model := replayModel(e.Name)
			delivery := make([]delivered, 0, len(data))
			for _, b := range data {
				idx := int(b&0x7F) % maxSeq
				d := delivered{wire: wires[idx], payload: payloads[idx]}
				if b&0x80 != 0 {
					d.wire = append([]byte(nil), d.wire...)
					d.wire[len(d.wire)-1] ^= 0x55
				} else {
					d.ok = model(idx + 1)
				}
				delivery = append(delivery, d)
			}
			// Arbitrary batch segmentation, sizes cycling with the data.
			var verdicts []secchan.Verdict
			chunk := make([][]byte, 0, 7)
			for start, k := 0, 0; start < len(delivery); k++ {
				size := 1 + (int(data[k%len(data)])+k)%7
				endAt := min(start+size, len(delivery))
				chunk = chunk[:0]
				for _, d := range delivery[start:endAt] {
					chunk = append(chunk, d.wire)
				}
				verdicts = secchan.VerifyBatch(bs, chunk, verdicts)
				checkVerdicts(t, e.Name, start, verdicts, delivery[start:endAt], ss)
				start = endAt
			}
			want := wantStats(bs.OverheadBytes(), payloads, delivery)
			if *bs.Stats() != want || *ss.Stats() != want {
				t.Fatalf("%s: stats:\nbatch  %+v\nserial %+v\nwant   %+v", e.Name, *bs.Stats(), *ss.Stats(), want)
			}
		}
	})
}
