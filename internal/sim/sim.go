// Package sim provides a deterministic discrete-event simulation kernel
// used by every substrate in autosec: a virtual clock, a priority event
// queue, a seeded pseudo-random source, and metric recorders.
//
// Determinism is a hard requirement: two runs with the same seed and the
// same event schedule must produce identical results, because the
// experiment harness compares attack success rates across defence
// configurations. No simulation path may consult wall-clock time.
//
// Every registry experiment runs on this kernel; the structured trace
// facility (Tracer, TraceEvent) is documented in docs/OBSERVABILITY.md.
package sim

import (
	"container/heap"
	"fmt"
	"math"
	"time"
)

// Time is a virtual simulation timestamp measured in nanoseconds from the
// start of the run. It is deliberately a distinct type from time.Time so
// that wall-clock values cannot leak into simulation logic.
type Time int64

// Common durations in virtual nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Duration converts the virtual timestamp into a time.Duration for
// human-readable reporting only.
func (t Time) Duration() time.Duration { return time.Duration(t) }

func (t Time) String() string {
	return time.Duration(t).String()
}

// Event is a unit of scheduled work. Run executes at the event's due
// time with the kernel as argument so handlers can schedule follow-ups.
type Event struct {
	At   Time
	Name string
	Run  func(k *Kernel)

	seq int // tiebreak: FIFO among equal timestamps
	idx int // heap index
}

// eventQueue implements heap.Interface ordered by (At, seq).
type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].At != q[j].At {
		return q[i].At < q[j].At
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].idx = i
	q[j].idx = j
}
func (q *eventQueue) Push(x any) {
	e := x.(*Event)
	e.idx = len(*q)
	*q = append(*q, e)
}
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// Kernel is the discrete-event simulation engine. The zero value is not
// usable; construct with NewKernel.
type Kernel struct {
	now     Time
	queue   eventQueue
	seq     int
	rng     *RNG
	metrics *Metrics
	stopped bool
	limit   int // safety cap on processed events; 0 = unlimited
	handled int
	tracer  Tracer
}

// NewKernel returns a kernel whose random source is seeded with seed.
func NewKernel(seed int64) *Kernel {
	return &Kernel{
		rng:     NewRNG(seed),
		metrics: NewMetrics(),
	}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// RNG returns the kernel's deterministic random source.
func (k *Kernel) RNG() *RNG { return k.rng }

// Metrics returns the kernel's metric registry.
func (k *Kernel) Metrics() *Metrics { return k.metrics }

// SetEventLimit caps the number of events the kernel will process before
// Run returns with an error; a guard against runaway schedules in tests.
func (k *Kernel) SetEventLimit(n int) { k.limit = n }

// SetTracer attaches a structured tracer. The kernel then emits one
// event per Schedule, per executed event (carrying the cumulative RNG
// draw count as a determinism checkpoint), and per Cancel, and the
// metric registry mirrors every Inc/Observe. A nil tracer disables all
// of it; the disabled cost is a single nil comparison per hook.
func (k *Kernel) SetTracer(t Tracer) {
	k.tracer = t
	k.metrics.bindTrace(t, k.Now)
}

// Tracer returns the attached tracer (nil when tracing is disabled).
func (k *Kernel) Tracer() Tracer { return k.tracer }

// Schedule enqueues fn to run at absolute virtual time at. Scheduling in
// the past is an error that panics: it always indicates a logic bug in a
// protocol model, never a recoverable condition.
func (k *Kernel) Schedule(at Time, name string, fn func(k *Kernel)) *Event {
	if at < k.now {
		panic(fmt.Sprintf("sim: event %q scheduled at %v before now %v", name, at, k.now))
	}
	e := &Event{At: at, Name: name, Run: fn, seq: k.seq}
	k.seq++
	heap.Push(&k.queue, e)
	if k.tracer != nil {
		k.tracer.Trace(TraceEvent{T: k.now, Kind: "schedule", Name: name, Seq: e.seq, At: at})
	}
	return e
}

// After enqueues fn to run d nanoseconds from now.
func (k *Kernel) After(d Time, name string, fn func(k *Kernel)) *Event {
	return k.Schedule(k.now+d, name, fn)
}

// Cancel removes a pending event. Cancelling an already-fired or
// already-cancelled event is a no-op.
func (k *Kernel) Cancel(e *Event) {
	if e == nil || e.idx < 0 || e.idx >= len(k.queue) || k.queue[e.idx] != e {
		return
	}
	heap.Remove(&k.queue, e.idx)
	e.idx = -1
	if k.tracer != nil {
		k.tracer.Trace(TraceEvent{T: k.now, Kind: "cancel", Name: e.Name, Seq: e.seq})
	}
}

// Stop makes Run return after the current event completes.
func (k *Kernel) Stop() { k.stopped = true }

// Run processes events in timestamp order until the queue is empty, the
// horizon is exceeded, or Stop is called. A horizon of 0 means no bound.
// Events beyond the horizon stay queued, so a later Run with a larger
// horizon still fires them.
func (k *Kernel) Run(horizon Time) error {
	k.stopped = false
	for len(k.queue) > 0 && !k.stopped {
		// Peek before popping: an event past the horizon must remain
		// pending, not be silently dropped.
		if horizon > 0 && k.queue[0].At > horizon {
			k.now = horizon
			return nil
		}
		e := heap.Pop(&k.queue).(*Event)
		e.idx = -1
		k.now = e.At
		e.Run(k)
		k.handled++
		if k.tracer != nil {
			k.tracer.Trace(TraceEvent{T: k.now, Kind: "exec", Name: e.Name, Seq: e.seq, Draws: k.rng.Draws()})
		}
		if k.limit > 0 && k.handled >= k.limit {
			return fmt.Errorf("sim: event limit %d reached at %v (last %q)", k.limit, k.now, e.Name)
		}
	}
	return nil
}

// Pending reports the number of events still queued.
func (k *Kernel) Pending() int { return len(k.queue) }

// Processed reports the number of events handled so far.
func (k *Kernel) Processed() int { return k.handled }

// RNG is a deterministic pseudo-random source (splitmix64 core with a
// xorshift finisher). It is intentionally independent from math/rand so
// that library-version changes can never silently alter experiment
// outputs. Its whole stream state is the splitmix counter: every
// sampler consumes whole 64-bit words and caches nothing between calls.
type RNG struct {
	state uint64
	draws uint64
}

// NewRNG returns a generator seeded with seed. Seed 0 is remapped to a
// fixed non-zero constant so the zero seed is still usable.
func NewRNG(seed int64) *RNG {
	s := uint64(seed)
	if s == 0 {
		s = 0x9E3779B97F4A7C15
	}
	return &RNG{state: s}
}

// Draws reports the number of 64-bit words drawn so far. It is the
// cheapest possible determinism checkpoint: two runs of the same seed
// must show identical draw counts at identical virtual times, so a
// divergence pins the first event that consumed randomness differently.
func (r *RNG) Draws() uint64 { return r.draws }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.draws++
	r.state += 0x9E3779B97F4A7C15
	return mix(r.state)
}

// mix is the splitmix64 output function applied to the counter state.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Intn returns a uniform int in [0, n). n must be positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63 returns a non-negative 63-bit integer.
func (r *RNG) Int63() int64 { return int64(r.Uint64() >> 1) }

// Float64 returns a uniform float in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// NormFloat64 returns a standard normal sample from a 256-layer
// ziggurat (Marsaglia & Tsang, "The Ziggurat Method for Generating
// Random Variables", JSS 5(8), 2000). About 98.5% of samples cost one
// Uint64 and one multiply; the rest take the wedge or tail rejection
// path in normalFrom.
func (r *RNG) NormFloat64() float64 { return r.normalFrom(r.Uint64()) }

// NormFill fills dst with standard normal samples, drawing exactly the
// stream successive NormFloat64 calls would produce — bulk callers
// (e.g. per-sample channel noise) switch between the two freely without
// perturbing determinism. The ziggurat fast path runs inline with the
// splitmix state in locals; a word that misses it hands the state back
// to normalFrom, which finishes that sample exactly as NormFloat64
// would, and the loop resumes from the state normalFrom leaves.
func (r *RNG) NormFill(dst []float64) {
	s, d := r.state, r.draws
	for i := range dst {
		s += 0x9E3779B97F4A7C15
		z := mix(s)
		d++
		if u, j := z>>11, z&0xff; u < zigK[j] {
			dst[i] = withSign(float64(u)*zigW[j], z)
			continue
		}
		r.state, r.draws = s, d
		dst[i] = r.normalFrom(z)
		s, d = r.state, r.draws
	}
	r.state, r.draws = s, d
}

// Ziggurat geometry: 256 layers of equal area zigV under the standard
// normal density f(x) = exp(-x²/2). Layer 0 is the base strip
// [0, zigR]×[0, f(zigR)] plus the tail beyond zigR; layer 255 sits on
// it and layer 1 is the top. A word z picks layer j = z&0xff, takes its
// sign from bit 8 and a 53-bit magnitude u = z>>11, and proposes
// x = u·zigW[j]. When u < zigK[j] the point lies inside the layer's
// rectangle core and x is accepted at once.
const zigR = 3.6541528853610088

var (
	zigK [256]uint64  // 2^53 · inner/outer edge of layer j; 0 for the all-wedge top
	zigW [256]float64 // outer edge of layer j, scaled by 2^-53
	zigF [256]float64 // f at the outer edge of layer j; zigF[0] = f(0) = 1
	zigV float64      // area of one layer
)

// init builds the tables from the Marsaglia–Tsang recurrence
// x_{i} = f⁻¹(f(x_{i+1}) + zigV/x_{i+1}), walking up from x_255 = zigR.
// The layer area is derived from zigR (rectangle plus Gaussian tail), so
// the base strip and the layers above it cover exactly the same area.
func init() {
	const m = 1 << 53
	x := zigR
	f := math.Exp(-0.5 * x * x)
	zigV = x*f + math.Sqrt(math.Pi/2)*math.Erfc(x/math.Sqrt2)
	q := zigV / f // width of the base strip, tail folded in
	zigK[0] = uint64(x / q * m)
	zigW[0] = q / m
	zigF[0] = 1
	zigW[255] = x / m
	zigF[255] = f
	for i := 254; i >= 1; i-- {
		inner := math.Sqrt(-2 * math.Log(zigV/x+f))
		zigK[i+1] = uint64(inner / x * m)
		x = inner
		f = math.Exp(-0.5 * x * x)
		zigW[i] = x / m
		zigF[i] = f
	}
}

// normalFrom finishes one normal sample whose first word z is already
// drawn: the fast path, then the tail or wedge test, drawing a fresh
// word after each rejection.
func (r *RNG) normalFrom(z uint64) float64 {
	for {
		u, j := z>>11, z&0xff
		if u < zigK[j] {
			return withSign(float64(u)*zigW[j], z)
		}
		if j == 0 {
			// Marsaglia's tail method: x = zigR + e₁/zigR is accepted
			// with probability exp(-e₁²/(2·zigR²)) via a second
			// exponential e₂. 1-Float64 lies in (0, 1], so Log is finite.
			for {
				x := -math.Log(1-r.Float64()) / zigR
				y := -math.Log(1 - r.Float64())
				if y+y >= x*x {
					return withSign(zigR+x, z)
				}
			}
		}
		x := float64(u) * zigW[j]
		if zigF[j]+r.Float64()*(zigF[j-1]-zigF[j]) < math.Exp(-0.5*x*x) {
			return withSign(x, z)
		}
		z = r.Uint64()
	}
}

// withSign negates the non-negative x when bit 8 of z is set. It flips
// the float's sign bit with an XOR rather than branching: the sign is a
// fair coin, so a branch would mispredict on half the samples.
func withSign(x float64, z uint64) float64 {
	return math.Float64frombits(math.Float64bits(x) ^ (z>>8&1)<<63)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Bytes fills b with random bytes.
func (r *RNG) Bytes(b []byte) {
	for i := 0; i < len(b); i += 8 {
		v := r.Uint64()
		for j := 0; j < 8 && i+j < len(b); j++ {
			b[i+j] = byte(v >> (8 * j))
		}
	}
}

// Fork derives an independent generator from this one, for components
// that need their own stream without perturbing the parent sequence.
func (r *RNG) Fork() *RNG {
	return &RNG{state: r.Uint64() ^ 0xD1B54A32D192ED03}
}
