package load

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"drp/internal/core"
	"drp/internal/xrand"
)

// Request is one scheduled arrival: the op fires at offset At from the
// run's start whether or not earlier requests have completed.
type Request struct {
	// At is the intended send time, as an offset from the run start.
	At time.Duration
	// Site is the origin site issuing the request.
	Site int
	// Obj is the target object.
	Obj int
	// Write selects the op: true = write, false = read.
	Write bool
}

// Schedule is a fully materialised arrival schedule: the one request
// stream drpload drives over the wire and drpsolve -replay prices. It is a
// pure function of its inputs — (profile, sites, objects) for
// BuildSchedule, (problem, seed) for FromCounts: building it twice yields
// byte-identical encodings, which is what makes A/B comparison honest —
// both placements face exactly the same request stream.
type Schedule struct {
	// Requests in ascending At order.
	Requests []Request
	// Sites and Objects record the dimensions the schedule was built for.
	Sites, Objects int
	// Reads/Writes count the ops in Requests.
	Reads, Writes int64
}

// duration returns the last arrival's offset (0 for an empty schedule).
func (s *Schedule) duration() time.Duration {
	if len(s.Requests) == 0 {
		return 0
	}
	return s.Requests[len(s.Requests)-1].At
}

// BuildSchedule materialises the profile's arrival schedule for a
// cluster of m sites and n objects. All randomness flows from the
// profile's seed through one xrand stream consumed in arrival order, so
// equal inputs produce identical schedules.
func BuildSchedule(m, n int, pr Profile) (*Schedule, error) {
	if err := pr.validate(m); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("load: schedule needs objects, got %d", n)
	}
	rng := xrand.New(pr.Seed)

	// Zipf popularity over a seeded object ranking, so the hot set is not
	// always the low object ids (mirrors workload.GenerateZipf).
	rank := rng.Perm(n)
	cumObj := make([]float64, n)
	hottest := 0
	var acc float64
	for k := 0; k < n; k++ {
		w := 1 / math.Pow(float64(rank[k]+1), pr.Skew)
		acc += w
		cumObj[k] = acc
		if rank[k] == 0 {
			hottest = k // rank 0 carries the largest weight
		}
	}

	origins := pr.originSites(m)
	cumOrigin := make([]float64, len(origins))
	acc = 0
	for i, site := range origins {
		w := 1.0
		if len(pr.Origins) > 0 {
			w = pr.Origins[site]
		}
		acc += w
		cumOrigin[i] = acc
	}

	sched := &Schedule{Sites: m, Objects: n}
	duration := time.Duration(pr.DurationMS) * time.Millisecond
	burstStart := time.Duration(pr.BurstStartMS) * time.Millisecond
	burstEnd := time.Duration(pr.BurstEndMS) * time.Millisecond
	var t time.Duration
	for {
		inBurst := pr.Arrival == arrivalBursty && t >= burstStart && t < burstEnd
		rate := pr.Rate
		if inBurst {
			rate *= pr.BurstMult
		}
		var gap time.Duration
		switch pr.Arrival {
		case ArrivalUniform:
			gap = time.Duration(float64(time.Second) / rate)
		default: // poisson, bursty
			// Exponential inter-arrival: -ln(1-U)/rate seconds.
			gap = time.Duration(-math.Log1p(-rng.Float64()) / rate * float64(time.Second))
		}
		if gap < time.Nanosecond {
			gap = time.Nanosecond // keep arrivals strictly ordered
		}
		t += gap
		if t >= duration {
			break
		}
		req := Request{
			At:   t,
			Site: pick(cumOrigin, origins, rng),
			Obj:  pickIndex(cumObj, rng),
		}
		if inBurst && pr.BurstFocus > 0 && rng.Bool(pr.BurstFocus) {
			req.Obj = hottest // the flash crowd converges on one object
		}
		req.Write = rng.Bool(pr.WriteFraction)
		if req.Write {
			sched.Writes++
		} else {
			sched.Reads++
		}
		sched.Requests = append(sched.Requests, req)
	}
	return sched, nil
}

// FromCounts expands the problem's per-period counts into a schedule of
// exactly r_k(i) reads and w_k(i) writes from every site i of every object
// k, each at a seeded uniform offset in one period of a second (drawn at
// microsecond resolution), stable-sorted by offset. Equal seeds give
// identical schedules.
func FromCounts(p *core.Problem, seed uint64) *Schedule {
	rng := xrand.New(seed)
	s := &Schedule{Sites: p.Sites(), Objects: p.Objects()}
	add := func(n int64, site, obj int, write bool) {
		for ; n > 0; n-- {
			at := time.Duration(rng.Intn(1_000_000)) * time.Microsecond
			s.Requests = append(s.Requests, Request{At: at, Site: site, Obj: obj, Write: write})
		}
	}
	for i := 0; i < p.Sites(); i++ {
		for k := 0; k < p.Objects(); k++ {
			s.Reads += p.Reads(i, k)
			s.Writes += p.Writes(i, k)
			add(p.Reads(i, k), i, k, false)
			add(p.Writes(i, k), i, k, true)
		}
	}
	sort.SliceStable(s.Requests, func(a, b int) bool { return s.Requests[a].At < s.Requests[b].At })
	return s
}

// pickIndex samples an index from a cumulative weight ladder.
func pickIndex(cum []float64, rng *xrand.Source) int {
	u := rng.Float64() * cum[len(cum)-1]
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] > u {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// pick samples a value from values by the cumulative ladder.
func pick(cum []float64, values []int, rng *xrand.Source) int {
	return values[pickIndex(cum, rng)]
}

// EncodeTo writes the schedule as one text line per request
// ("<offset-ns> <site> <obj> <r|w>"), the byte representation the
// determinism tests compare and Digest hashes.
func (s *Schedule) EncodeTo(w io.Writer) error {
	for _, r := range s.Requests {
		op := byte('r')
		if r.Write {
			op = 'w'
		}
		if _, err := fmt.Fprintf(w, "%d %d %d %c\n", r.At.Nanoseconds(), r.Site, r.Obj, op); err != nil {
			return err
		}
	}
	return nil
}

// ReadSchedule decodes what EncodeTo wrote for a cluster of the given
// sites and objects; the result has the encoded schedule's Digest. A line
// that is not "<offset-ns> <site> <obj> <r|w>" is an error: a field count
// other than four, a field that is not an integer, a negative offset or
// one below the previous line's, a site or object out of range, or an op
// other than r or w.
func ReadSchedule(r io.Reader, sites, objects int) (*Schedule, error) {
	s := &Schedule{Sites: sites, Objects: objects}
	sc := bufio.NewScanner(r)
	for line := 1; sc.Scan(); line++ {
		req, err := parseRequest(sc.Text(), sites, objects)
		if err == nil && len(s.Requests) > 0 && req.At < s.Requests[len(s.Requests)-1].At {
			err = fmt.Errorf("offset %d precedes the previous line's", req.At.Nanoseconds())
		}
		if err != nil {
			return nil, fmt.Errorf("load: schedule line %d: %w", line, err)
		}
		if req.Write {
			s.Writes++
		} else {
			s.Reads++
		}
		s.Requests = append(s.Requests, req)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("load: read schedule: %w", err)
	}
	return s, nil
}

// parseRequest decodes one EncodeTo line.
func parseRequest(line string, sites, objects int) (Request, error) {
	if strings.HasPrefix(strings.TrimSpace(line), "{") {
		return Request{}, errors.New("JSON-lines request traces are no longer read; regenerate with drpgen -trace")
	}
	f := strings.Fields(line)
	if len(f) != 4 {
		return Request{}, fmt.Errorf("%d fields, want 4: <offset-ns> <site> <obj> <r|w>", len(f))
	}
	var v [3]int64
	for x, limit := range [3]int64{math.MaxInt64, int64(sites), int64(objects)} {
		n, err := strconv.ParseInt(f[x], 10, 64)
		if err != nil || n < 0 || n >= limit {
			return Request{}, fmt.Errorf("%s %q is not an integer in [0, %d)", [3]string{"offset", "site", "object"}[x], f[x], limit)
		}
		v[x] = n
	}
	if f[3] != "r" && f[3] != "w" {
		return Request{}, fmt.Errorf("op %q is neither r nor w", f[3])
	}
	return Request{At: time.Duration(v[0]), Site: int(v[1]), Obj: int(v[2]), Write: f[3] == "w"}, nil
}

// Digest returns a hex SHA-256 over the schedule's canonical binary
// form: dimensions then (At, Site, Obj, op) per request. Two schedules
// with equal digests issue identical request streams.
func (s *Schedule) Digest() string {
	h := sha256.New()
	var buf [8]byte
	writeInt := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	writeInt(int64(s.Sites))
	writeInt(int64(s.Objects))
	for _, r := range s.Requests {
		writeInt(r.At.Nanoseconds())
		writeInt(int64(r.Site))
		writeInt(int64(r.Obj))
		if r.Write {
			writeInt(1)
		} else {
			writeInt(0)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
