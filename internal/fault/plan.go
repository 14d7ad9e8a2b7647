// Package fault injects deterministic, seed-driven failures into the TCP
// replication cluster of drp/internal/netnode without the node code
// changing: the injector is a gate every call attempt asks first
// (netnode.Dialer), naming the site it goes to, so the happy path is an
// attempt on the node's persistent link and every fault is an error or
// delay a real network would produce.
//
// A Plan is a list of events — site crash/restart windows, link
// blackholes, latency spikes, probabilistic message drops — stated in
// site indices and pinned to a logical step clock that the traffic driver
// advances once per request (netnode's SetRequestHook). Whether a given
// attempt succeeds is a pure function of the plan and the current step
// (drops additionally consume a seeded RNG in the order attempts ask
// their gates), so a seeded plan replays bit-identically and the
// surviving-replica transfer cost is computable a priori; the chaos tests
// assert it exactly. Plan.Down is the one crash rule: the gate asks it per
// attempt, and drpcluster's epoch simulator per epoch.
package fault

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"
)

// Kind enumerates fault event types.
type Kind string

// Fault event kinds.
const (
	// KindCrash takes a site down for the window: every attempt to it, and
	// every attempt it originates, fails.
	KindCrash Kind = "crash"
	// KindRestart brings a site back up, ending at the restart step any
	// crash window of the site that started at or before it, bounded or
	// not; it does not cancel a crash that starts later.
	KindRestart Kind = "restart"
	// KindBlackhole drops all traffic between Site and Peer, both
	// directions, for the window.
	KindBlackhole Kind = "blackhole"
	// kindLatency delays every attempt involving Site by DelayMS for the
	// window.
	kindLatency Kind = "latency"
	// kindLinkLatency delays every attempt on the Site↔Peer link, both
	// directions, by DelayMS for the window. Unlike kindLatency it is
	// per-link, so a matrix of link delays (a geo-latency profile) is a
	// set of these events; see MatrixPlan.
	kindLinkLatency Kind = "linklat"
	// KindDrop makes attempts involving Site (or the Site↔Peer link when
	// Peer ≥ 0) fail with probability Prob during the window, driven by
	// the plan's seeded RNG.
	KindDrop Kind = "drop"
)

// coordinator is the pseudo-site index of the cluster coordinator for
// link-level events (it originates deploy/reconcile commands but serves
// no traffic and cannot crash).
const coordinator = -1

// Event is one scheduled fault. Step/Until delimit the half-open logical
// window [Step, Until); Until == 0 means "until cancelled" (for crashes, a
// later restart) or forever.
type Event struct {
	Kind  Kind  `json:"kind"`
	Site  int   `json:"site"`
	Peer  int   `json:"peer,omitempty"`
	Step  int64 `json:"step"`
	Until int64 `json:"until,omitempty"`
	// DelayMS is the latency-spike magnitude in milliseconds.
	DelayMS int64 `json:"delay_ms,omitempty"`
	// Prob is the per-dial drop probability in [0,1].
	Prob float64 `json:"prob,omitempty"`
}

// delay returns the latency-spike magnitude as a duration.
func (e Event) delay() time.Duration { return time.Duration(e.DelayMS) * time.Millisecond }

// active reports whether the event's window covers step.
func (e Event) active(step int64) bool {
	return step >= e.Step && (e.Until == 0 || step < e.Until)
}

// Plan is a deterministic fault schedule.
type Plan struct {
	// Seed drives the drop-event RNG; plans with the same seed replay
	// bit-identically under serial traffic.
	Seed uint64 `json:"seed"`
	// Events is the fault schedule.
	Events []Event `json:"events"`
}

// validate checks the plan against a cluster of m sites.
func (p *Plan) validate(m int) error {
	for i, e := range p.Events {
		prefix := fmt.Sprintf("fault: event %d (%s)", i, e.Kind)
		if e.Step < 0 || e.Until < 0 {
			return fmt.Errorf("%s: negative step window [%d,%d)", prefix, e.Step, e.Until)
		}
		if e.Until != 0 && e.Until <= e.Step {
			return fmt.Errorf("%s: empty step window [%d,%d)", prefix, e.Step, e.Until)
		}
		switch e.Kind {
		case KindCrash, KindRestart, kindLatency:
			if e.Site < 0 || e.Site >= m {
				return fmt.Errorf("%s: site %d out of range [0,%d)", prefix, e.Site, m)
			}
		case KindBlackhole, kindLinkLatency:
			if e.Site < coordinator || e.Site >= m || e.Peer < coordinator || e.Peer >= m {
				return fmt.Errorf("%s: endpoints %d↔%d out of range", prefix, e.Site, e.Peer)
			}
			if e.Site == e.Peer {
				return fmt.Errorf("%s: %s needs two distinct endpoints, got %d", prefix, e.Kind, e.Site)
			}
		case KindDrop:
			if e.Site < 0 || e.Site >= m {
				return fmt.Errorf("%s: site %d out of range [0,%d)", prefix, e.Site, m)
			}
			if e.Peer < coordinator || e.Peer >= m {
				return fmt.Errorf("%s: peer %d out of range", prefix, e.Peer)
			}
			if e.Prob < 0 || e.Prob > 1 {
				return fmt.Errorf("%s: drop probability %v outside [0,1]", prefix, e.Prob)
			}
		default:
			return fmt.Errorf("%s: unknown kind", prefix)
		}
		if e.DelayMS < 0 {
			return fmt.Errorf("%s: negative delay %dms", prefix, e.DelayMS)
		}
	}
	return nil
}

// Normalize clamps a (possibly fuzzer-generated) plan onto a cluster of m
// sites with latency spikes capped at maxDelay, returning a plan that
// always passes Validate. Out-of-range endpoints are wrapped into range,
// windows are repaired, probabilities clamped.
func (p *Plan) Normalize(m int, maxDelay time.Duration) Plan {
	out := Plan{Seed: p.Seed}
	maxMS := maxDelay.Milliseconds()
	for _, e := range p.Events {
		switch e.Kind {
		case KindCrash, KindRestart, kindLatency, KindBlackhole, KindDrop, kindLinkLatency:
		default:
			continue
		}
		linkKind := e.Kind == KindBlackhole || e.Kind == kindLinkLatency
		e.Site = wrapSite(e.Site, m, linkKind)
		e.Peer = wrapSite(e.Peer, m, linkKind || e.Kind == KindDrop)
		if e.Kind == KindDrop && e.Site < 0 {
			e.Site = 0
		}
		if linkKind && e.Site == e.Peer {
			if e.Site == coordinator {
				e.Peer = 0
			} else {
				e.Peer = (e.Site + 1) % m
			}
			if e.Peer == e.Site {
				continue // single-site cluster: no distinct link exists
			}
		}
		if e.Step < 0 {
			e.Step = -e.Step
		}
		if e.Until < 0 {
			e.Until = -e.Until
		}
		if e.Until != 0 && e.Until <= e.Step {
			e.Until = e.Step + 1
		}
		if e.DelayMS < 0 {
			e.DelayMS = -e.DelayMS
		}
		if e.DelayMS > maxMS {
			e.DelayMS = maxMS
		}
		if e.Prob < 0 || e.Prob != e.Prob { // negative or NaN
			e.Prob = 0
		}
		if e.Prob > 1 {
			e.Prob = 1
		}
		out.Events = append(out.Events, e)
	}
	return out
}

// wrapSite folds an arbitrary site index into [0,m) — or [-1,m) when the
// coordinator is an allowed endpoint.
func wrapSite(s, m int, allowCoordinator bool) int {
	if allowCoordinator && s == coordinator {
		return s
	}
	if s >= 0 && s < m {
		return s
	}
	if m <= 0 {
		return 0
	}
	s %= m
	if s < 0 {
		s += m
	}
	return s
}

// Down reports whether site is down at step: some crash window covers the
// step and no restart of the site landed between the crash's start and
// the step. A restart ends a crash, bounded or not, at the restart step; a
// restart before a crash starts does not cancel it. It is the one crash
// rule: the wire gate asks it per attempt, the epoch simulator per epoch.
func (p *Plan) Down(site int, step int64) bool {
	for _, e := range p.Events {
		if e.Kind != KindCrash || e.Site != site || !e.active(step) {
			continue
		}
		revived := false
		for _, r := range p.Events {
			if r.Kind == KindRestart && r.Site == site && r.Step >= e.Step && r.Step <= step {
				revived = true
				break
			}
		}
		if !revived {
			return true
		}
	}
	return false
}

// blackholed reports whether the a↔b link is severed at step (either
// endpoint may be coordinator).
func (p *Plan) blackholed(a, b int, step int64) bool {
	for _, e := range p.Events {
		if e.Kind != KindBlackhole || !e.active(step) {
			continue
		}
		if (e.Site == a && e.Peer == b) || (e.Site == b && e.Peer == a) {
			return true
		}
	}
	return false
}

// Reachable reports whether an attempt from client a (coordinator
// allowed) to site b can succeed at step, ignoring probabilistic drops:
// neither endpoint crashed and the link not blackholed. This is the reachability
// relation the chaos tests' a-priori cost model uses.
func (p *Plan) Reachable(a, b int, step int64) bool {
	if p.Down(a, step) || p.Down(b, step) {
		return false
	}
	return !p.blackholed(a, b, step)
}

// LatencyAt returns the total delay injected on attempts from a to b at
// step: site-scoped latency spikes involving either endpoint plus
// link-scoped delays on the a↔b link.
func (p *Plan) LatencyAt(a, b int, step int64) time.Duration {
	var d time.Duration
	for _, e := range p.Events {
		if !e.active(step) {
			continue
		}
		switch e.Kind {
		case kindLatency:
			if e.Site == a || e.Site == b {
				d += e.delay()
			}
		case kindLinkLatency:
			if (e.Site == a && e.Peer == b) || (e.Site == b && e.Peer == a) {
				d += e.delay()
			}
		}
	}
	return d
}

// MatrixPlan builds the latency half of a geo profile: one open-ended
// link-latency event per site pair with a positive delay in the matrix.
// The matrix must be square and symmetric with non-negative entries and a
// zero diagonal (a site does not dial itself over the wire). The returned
// plan injects delayMS[i][j] on every attempt between sites i and j,
// forever.
func MatrixPlan(delayMS [][]int64) (Plan, error) {
	m := len(delayMS)
	plan := Plan{}
	for i, row := range delayMS {
		if len(row) != m {
			return Plan{}, fmt.Errorf("fault: latency matrix row %d has %d entries, want %d", i, len(row), m)
		}
		for j, d := range row {
			if d < 0 {
				return Plan{}, fmt.Errorf("fault: negative latency %dms on link %d↔%d", d, i, j)
			}
			if i == j {
				if d != 0 {
					return Plan{}, fmt.Errorf("fault: latency matrix diagonal [%d][%d] must be zero, got %d", i, j, d)
				}
				continue
			}
			if delayMS[j][i] != d {
				return Plan{}, fmt.Errorf("fault: latency matrix asymmetric at [%d][%d]: %d vs %d", i, j, d, delayMS[j][i])
			}
			if i < j && d > 0 {
				plan.Events = append(plan.Events, Event{Kind: kindLinkLatency, Site: i, Peer: j, DelayMS: d})
			}
		}
	}
	return plan, nil
}

// dropProb returns the combined drop probability for an attempt from a to
// b at step (independent drop events compose).
func (p *Plan) dropProb(a, b int, step int64) float64 {
	keep := 1.0
	for _, e := range p.Events {
		if e.Kind != KindDrop || !e.active(step) {
			continue
		}
		match := false
		if e.Peer == coordinator {
			match = e.Site == a || e.Site == b
		} else {
			match = (e.Site == a && e.Peer == b) || (e.Site == b && e.Peer == a)
		}
		if match {
			keep *= 1 - e.Prob
		}
	}
	return 1 - keep
}

// MaxStep returns the largest step any event references (the end of the
// plan's schedule); events with Until == 0 contribute their start step.
func (p *Plan) MaxStep() int64 {
	var max int64
	for _, e := range p.Events {
		if e.Step > max {
			max = e.Step
		}
		if e.Until > max {
			max = e.Until
		}
	}
	return max
}

// Encode writes the plan as indented JSON.
func (p *Plan) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}

// parsePlan decodes a plan from JSON bytes, rejecting unknown fields so
// typos in hand-written plans fail loudly.
func parsePlan(data []byte) (Plan, error) {
	var p Plan
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return Plan{}, fmt.Errorf("fault: parse plan: %w", err)
	}
	return p, nil
}

// ReadPlan decodes a plan from r.
func ReadPlan(r io.Reader) (Plan, error) {
	data, err := io.ReadAll(io.LimitReader(r, 8<<20))
	if err != nil {
		return Plan{}, fmt.Errorf("fault: read plan: %w", err)
	}
	return parsePlan(data)
}

// LoadPlan reads and validates a plan file against a cluster of m sites.
func LoadPlan(path string, m int) (Plan, error) {
	f, err := os.Open(path)
	if err != nil {
		return Plan{}, fmt.Errorf("fault: %w", err)
	}
	defer f.Close()
	p, err := ReadPlan(f)
	if err != nil {
		return Plan{}, err
	}
	if err := p.validate(m); err != nil {
		return Plan{}, err
	}
	return p, nil
}
