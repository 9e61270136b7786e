package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestKernelOrdersEventsByTime(t *testing.T) {
	k := NewKernel(1)
	var got []string
	k.Schedule(30, "c", func(*Kernel) { got = append(got, "c") })
	k.Schedule(10, "a", func(*Kernel) { got = append(got, "a") })
	k.Schedule(20, "b", func(*Kernel) { got = append(got, "b") })
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "c"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if k.Now() != 30 {
		t.Errorf("Now = %v, want 30", k.Now())
	}
}

func TestKernelFIFOAmongEqualTimestamps(t *testing.T) {
	k := NewKernel(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.Schedule(5, "e", func(*Kernel) { got = append(got, i) })
	}
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("equal-time events reordered: %v", got)
		}
	}
}

func TestKernelAfterSchedulesRelative(t *testing.T) {
	k := NewKernel(1)
	var at Time
	k.Schedule(100, "outer", func(k *Kernel) {
		k.After(50, "inner", func(k *Kernel) { at = k.Now() })
	})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if at != 150 {
		t.Errorf("inner ran at %v, want 150", at)
	}
}

func TestKernelSchedulePastPanics(t *testing.T) {
	k := NewKernel(1)
	k.Schedule(100, "x", func(k *Kernel) {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		k.Schedule(50, "past", func(*Kernel) {})
	})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
}

func TestKernelCancel(t *testing.T) {
	k := NewKernel(1)
	fired := false
	e := k.Schedule(10, "x", func(*Kernel) { fired = true })
	k.Cancel(e)
	k.Cancel(e) // double-cancel is a no-op
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Error("cancelled event still fired")
	}
}

func TestKernelHorizonStopsEarly(t *testing.T) {
	k := NewKernel(1)
	fired := false
	k.Schedule(1000, "late", func(*Kernel) { fired = true })
	if err := k.Run(500); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Error("event past horizon fired")
	}
	if k.Now() != 500 {
		t.Errorf("Now = %v, want horizon 500", k.Now())
	}
}

func TestKernelHorizonKeepsEventPending(t *testing.T) {
	k := NewKernel(1)
	fired := false
	k.Schedule(1000, "late", func(*Kernel) { fired = true })
	if err := k.Run(500); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Error("event past horizon fired early")
	}
	if k.Pending() != 1 {
		t.Fatalf("Pending = %d after bounded Run, want 1 (event must stay queued)", k.Pending())
	}
	if err := k.Run(2000); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Error("event dropped by earlier bounded Run; it must fire once the horizon allows")
	}
	if k.Now() != 1000 {
		t.Errorf("Now = %v, want 1000", k.Now())
	}
}

func TestKernelStop(t *testing.T) {
	k := NewKernel(1)
	count := 0
	for i := 1; i <= 10; i++ {
		k.Schedule(Time(i), "e", func(k *Kernel) {
			count++
			if count == 3 {
				k.Stop()
			}
		})
	}
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Errorf("processed %d events after Stop, want 3", count)
	}
}

func TestKernelEventLimit(t *testing.T) {
	k := NewKernel(1)
	k.SetEventLimit(5)
	var loop func(k *Kernel)
	loop = func(k *Kernel) { k.After(1, "loop", loop) }
	k.After(1, "loop", loop)
	if err := k.Run(0); err == nil {
		t.Error("runaway schedule did not hit event limit")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := true
	a2 := NewRNG(42)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestRNGZeroSeedUsable(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == r.Uint64() {
		t.Error("zero-seeded RNG appears constant")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(7)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Errorf("Intn(10) covered %d values in 1000 draws", len(seen))
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	r := NewRNG(9)
	f := func(n uint8) bool {
		size := int(n%64) + 1
		p := r.Perm(size)
		seen := make([]bool, size)
		for _, v := range p {
			if v < 0 || v >= size || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRNGNormFloat64Moments(t *testing.T) {
	r := NewRNG(11)
	n := 50000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if mean < -0.05 || mean > 0.05 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if variance < 0.9 || variance > 1.1 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

// TestRNGNormFillMatchesNormFloat64 pins the bulk and scalar normal
// generators to one stream: any slicing of the sequence into NormFill
// chunks (the 257 samples of seed 21 include ziggurat rejections, whose
// extra draws NormFill's inline fast path must hand back and forth with
// the scalar slow path) must reproduce the per-call sequence bit for
// bit.
func TestRNGNormFillMatchesNormFloat64(t *testing.T) {
	const total = 257
	ref := NewRNG(21)
	want := make([]float64, total)
	for i := range want {
		want[i] = ref.NormFloat64()
	}
	for _, chunks := range [][]int{{total}, {1, 2, 3, 251}, {7, 7, 7, 236}, {256, 1}, {2, 255}} {
		r := NewRNG(21)
		got := make([]float64, 0, total)
		for _, n := range chunks {
			buf := make([]float64, n)
			r.NormFill(buf)
			got = append(got, buf...)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("chunks %v: sample %d = %v, want %v", chunks, i, got[i], want[i])
			}
		}
	}
	// Interleaving scalar and bulk calls continues the same stream.
	r := NewRNG(21)
	got := make([]float64, 0, total)
	for len(got) < total {
		if len(got)%3 == 0 {
			got = append(got, r.NormFloat64())
		} else {
			buf := make([]float64, 5)
			r.NormFill(buf)
			got = append(got, buf...)
		}
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("interleaved: sample %d = %v, want %v", i, got[i], want[i])
		}
	}
	r2 := NewRNG(21)
	r2.NormFill(nil)
	if r2.Draws() != 0 {
		t.Error("NormFill(nil) consumed draws")
	}
}

// FuzzNormFillChunking drives any mix of NormFill chunks and scalar
// NormFloat64 calls against one NormFloat64 loop from the same seed.
// Each chunk byte is one step: 0 is a NormFloat64 call, n > 0 a
// NormFill of n samples. Samples must match bit for bit, and both
// generators must end on the same draw count and the same next word —
// a state rewind on the rejection path shows up here.
func FuzzNormFillChunking(f *testing.F) {
	f.Add(int64(21), []byte{1, 2, 3, 251})
	f.Add(int64(0), []byte{0, 7, 0, 255, 255, 0, 13})
	f.Add(int64(-5), []byte{255, 255, 255, 255, 255, 255, 255, 255})
	f.Fuzz(func(t *testing.T, seed int64, chunks []byte) {
		r := NewRNG(seed)
		var got []float64
		buf := make([]float64, 255)
		for _, c := range chunks {
			if c == 0 {
				got = append(got, r.NormFloat64())
				continue
			}
			r.NormFill(buf[:c])
			got = append(got, buf[:c]...)
		}
		ref := NewRNG(seed)
		for i, g := range got {
			if w := ref.NormFloat64(); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("seed %d chunks %v: sample %d = %v, want %v", seed, chunks, i, g, w)
			}
		}
		if r.Draws() != ref.Draws() {
			t.Fatalf("seed %d chunks %v: %d draws, want %d", seed, chunks, r.Draws(), ref.Draws())
		}
		if a, b := r.Uint64(), ref.Uint64(); a != b {
			t.Fatalf("seed %d chunks %v: next word %#x, want %#x", seed, chunks, a, b)
		}
	})
}

// boxMullerRef is the normal sampler RNG used before the ziggurat, kept
// verbatim (paired Box–Muller with a cached sine partner) over the same
// uniform stream. It is the distributional reference for the ziggurat
// and the baseline of BenchmarkNormFillBoxMullerRef.
type boxMullerRef struct {
	r        *RNG
	spare    float64
	hasSpare bool
}

func (b *boxMullerRef) NormFloat64() float64 {
	if b.hasSpare {
		b.hasSpare = false
		return b.spare
	}
	u1 := b.r.Float64()
	for u1 == 0 {
		u1 = b.r.Float64()
	}
	u2 := b.r.Float64()
	rad := math.Sqrt(-2 * math.Log(u1))
	sin, cos := math.Sincos(2 * math.Pi * u2)
	b.spare, b.hasSpare = rad*sin, true
	return rad * cos
}

func (b *boxMullerRef) NormFill(dst []float64) {
	i := 0
	if b.hasSpare && len(dst) > 0 {
		b.hasSpare = false
		dst[0] = b.spare
		i = 1
	}
	for ; i+1 < len(dst); i += 2 {
		u1 := b.r.Float64()
		for u1 == 0 {
			u1 = b.r.Float64()
		}
		u2 := b.r.Float64()
		rad := math.Sqrt(-2 * math.Log(u1))
		sin, cos := math.Sincos(2 * math.Pi * u2)
		dst[i] = rad * cos
		dst[i+1] = rad * sin
	}
	if i < len(dst) {
		dst[i] = b.NormFloat64() // odd tail: partner goes to the spare
	}
}

// TestNormalMatchesReferenceDistribution is the statistical correctness
// argument for the ziggurat: a two-sample Kolmogorov–Smirnov test
// against the Box–Muller reference at α = 0.001, the first four moments
// within 5σ of their sampling error, and the tail masses beyond 3 and
// beyond zigR (the Marsaglia tail branch) within 5σ of the exact
// Gaussian value. Both samplers face the same moment and tail checks,
// so a failure names which side is off.
func TestNormalMatchesReferenceDistribution(t *testing.T) {
	const n = 1 << 20
	zig := make([]float64, n)
	NewRNG(1).NormFill(zig)
	bm := make([]float64, n)
	(&boxMullerRef{r: NewRNG(2)}).NormFill(bm)

	for _, s := range []struct {
		name string
		x    []float64
	}{{"ziggurat", zig}, {"box-muller", bm}} {
		var m1, m2, m3, m4 float64
		var over3, overR int
		for _, v := range s.x {
			v2 := v * v
			m1 += v
			m2 += v2
			m3 += v2 * v
			m4 += v2 * v2
			if a := math.Abs(v); a > 3 {
				over3++
				if a > zigR {
					overR++
				}
			}
		}
		// Central moments from the raw ones; the standard errors are
		// those of N(0,1) at sample size n.
		m1, m2, m3, m4 = m1/n, m2/n, m3/n, m4/n
		mean, variance := m1, m2-m1*m1
		skew := (m3 - 3*m1*m2 + 2*m1*m1*m1) / math.Pow(variance, 1.5)
		kurt := (m4-4*m1*m3+6*m1*m1*m2-3*m1*m1*m1*m1)/(variance*variance) - 3
		for _, c := range []struct {
			what      string
			got, want float64
			se        float64
		}{
			{"mean", mean, 0, math.Sqrt(1.0 / n)},
			{"variance", variance, 1, math.Sqrt(2.0 / n)},
			{"skew", skew, 0, math.Sqrt(6.0 / n)},
			{"excess kurtosis", kurt, 0, math.Sqrt(24.0 / n)},
			{"P(|x|>3)", float64(over3) / n, math.Erfc(3 / math.Sqrt2), 0},
			{"P(|x|>r)", float64(overR) / n, math.Erfc(zigR / math.Sqrt2), 0},
		} {
			if c.se == 0 { // a binomial proportion
				c.se = math.Sqrt(c.want * (1 - c.want) / n)
			}
			if math.Abs(c.got-c.want) > 5*c.se {
				t.Errorf("%s %s = %.6g, want %.6g ± 5·%.3g", s.name, c.what, c.got, c.want, c.se)
			}
		}
	}

	// Two-sample KS: D = sup |F_zig − F_bm|. The α = 0.001 critical
	// value is c·√(2/n) with c = √(−ln(α/2)/2).
	sort.Float64s(zig)
	sort.Float64s(bm)
	d, i, j := 0.0, 0, 0
	for i < n && j < n {
		v := math.Min(zig[i], bm[j])
		for i < n && zig[i] == v {
			i++
		}
		for j < n && bm[j] == v {
			j++
		}
		d = math.Max(d, math.Abs(float64(i-j))/n)
	}
	if crit := math.Sqrt(-math.Log(0.001/2)/2) * math.Sqrt(2.0/n); d > crit {
		t.Errorf("two-sample KS D = %.5f exceeds the α=0.001 critical value %.5f", d, crit)
	}
}

// TestZigguratTables pins the table bits: the normal stream is a pure
// function of them, so a toolchain or libm change that moves a single
// Exp/Log/Sqrt/Erfc result must fail here rather than silently shift
// every golden. It also checks the geometry the recurrence must close
// on: the top layer, built last, has the same area as the base strip.
func TestZigguratTables(t *testing.T) {
	h := sha256.New()
	for j := range zigK {
		var b [24]byte
		binary.LittleEndian.PutUint64(b[0:], zigK[j])
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(zigW[j]))
		binary.LittleEndian.PutUint64(b[16:], math.Float64bits(zigF[j]))
		h.Write(b[:])
	}
	const want = "3499cdb0b1f87fa47b7cd1a1c6c894a29c5f3e0f16464180171b1387113d38ce"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("ziggurat table digest = %s, want %s", got, want)
	}
	x1 := zigW[1] * (1 << 53)
	if top := x1 * (1 - zigF[1]); math.Abs(top-zigV) > 1e-9*zigV {
		t.Errorf("top layer area = %.15g, want zigV = %.15g", top, zigV)
	}
	for j := 2; j < 256; j++ {
		if zigK[j] == 0 || zigK[j] >= 1<<53 || zigW[j] <= zigW[j-1] {
			t.Errorf("layer %d: K = %d, W = %g after %g", j, zigK[j], zigW[j], zigW[j-1])
		}
	}
}

func BenchmarkNormFillBoxMullerRef(b *testing.B) {
	b.ReportAllocs()
	r := &boxMullerRef{r: NewRNG(1)}
	var buf [256]float64
	for i := 0; i < b.N; i++ {
		r.NormFill(buf[:])
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(buf)), "ns/sample")
}

func TestRNGForkIndependence(t *testing.T) {
	r := NewRNG(5)
	child := r.Fork()
	// Parent continues a different stream than the child.
	diff := false
	for i := 0; i < 10; i++ {
		if r.Uint64() != child.Uint64() {
			diff = true
		}
	}
	if !diff {
		t.Error("forked stream identical to parent")
	}
}

func TestRNGBytesFillsAll(t *testing.T) {
	r := NewRNG(13)
	b := make([]byte, 37)
	r.Bytes(b)
	zero := 0
	for _, v := range b {
		if v == 0 {
			zero++
		}
	}
	if zero == len(b) {
		t.Error("Bytes left buffer all zero")
	}
}

func TestMetricsCountersAndSeries(t *testing.T) {
	m := NewMetrics()
	m.Inc("frames", 3)
	m.Inc("frames", 2)
	if got := m.Counter("frames"); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	for i := 1; i <= 100; i++ {
		m.Observe("lat", float64(i))
	}
	s := m.Summarize("lat")
	if s.N != 100 || s.Min != 1 || s.Max != 100 {
		t.Errorf("summary = %+v", s)
	}
	if s.Mean < 50 || s.Mean > 51 {
		t.Errorf("mean = %v, want 50.5", s.Mean)
	}
	if s.P50 < 49 || s.P50 > 52 {
		t.Errorf("p50 = %v", s.P50)
	}
}

func TestMetricsEmptySummary(t *testing.T) {
	m := NewMetrics()
	if s := m.Summarize("missing"); s.N != 0 {
		t.Errorf("empty series summary N = %d", s.N)
	}
}

func TestMetricsStringStableOrder(t *testing.T) {
	m := NewMetrics()
	m.Inc("b", 1)
	m.Inc("a", 1)
	m.Observe("z", 1)
	m.Observe("y", 1)
	if m.String() != m.String() {
		t.Error("String not stable")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.AddRow("alpha", 1)
	tb.AddRow("b", 2.5)
	out := tb.String()
	if out == "" || tb.Rows() != 2 {
		t.Fatalf("unexpected table: %q", out)
	}
	for _, want := range []string{"demo", "alpha", "2.500"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}
