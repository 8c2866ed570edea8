// Package faults defines deterministic fault schedules for the distributed
// emulator. A real 24-node MaSSF cluster does not stay perfect for the length
// of a run: engine nodes crash, fall behind (straggle), and the cluster
// interconnect degrades. A Schedule describes such incidents against virtual
// time so that a run — and its recovery — is exactly reproducible:
//
//   - Crash: a simulation-engine node fail-stops at virtual time At. The
//     kernel detects the death at the next window barrier; the emulator remaps
//     the dead engine's virtual nodes across the survivors there and charges
//     the emulation since its last cadence barrier as lost.
//   - Straggler: an engine processes kernel events Factor× slower over
//     [From, To) — a background daemon, thermal throttling, a noisy neighbor.
//   - Degradation: the cluster network's per-remote-event cost rises Factor×
//     over [From, To) — congestion or a flapping switch between engines.
//
// The package is pure data and queries; the emulator (internal/emu) applies
// the cost multipliers and drives recovery.
package faults

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Crash fail-stops engine Engine at virtual time At.
type Crash struct {
	Engine int
	At     float64
}

// Straggler slows engine Engine by Factor (>= 1 multiplies its per-event
// processing cost) over the virtual-time interval [From, To).
type Straggler struct {
	Engine   int
	From, To float64
	Factor   float64
}

// Degradation raises the cluster network's per-remote-event cost by Factor
// (>= 1) over the virtual-time interval [From, To). It applies to every
// engine pair — the paper's cluster shares one switched Ethernet.
type Degradation struct {
	From, To float64
	Factor   float64
}

// Schedule is a deterministic set of faults injected into one run.
type Schedule struct {
	Crashes      []Crash
	Stragglers   []Straggler
	Degradations []Degradation
}

// Empty reports whether the schedule injects nothing.
func (s *Schedule) Empty() bool {
	return s == nil || (len(s.Crashes) == 0 && len(s.Stragglers) == 0 && len(s.Degradations) == 0)
}

// HasCrashes reports whether any engine fail-stops.
func (s *Schedule) HasCrashes() bool { return s != nil && len(s.Crashes) > 0 }

// Validate checks the schedule against an engine count: indices in range,
// finite positive times and bounds, finite factors >= 1, no engine crashing
// twice, and at least one engine surviving every crash.
func (s *Schedule) Validate(numEngines int) error {
	if s == nil {
		return nil
	}
	if len(s.Crashes) >= numEngines && len(s.Crashes) > 0 {
		return fmt.Errorf("faults: %d crashes leave no survivor among %d engines", len(s.Crashes), numEngines)
	}
	seen := make(map[int]bool)
	for _, c := range s.Crashes {
		if c.Engine < 0 || c.Engine >= numEngines {
			return fmt.Errorf("faults: crash engine %d out of range [0,%d)", c.Engine, numEngines)
		}
		if !(c.At > 0) || math.IsInf(c.At, 1) {
			return fmt.Errorf("faults: crash of engine %d at non-positive or non-finite time %g", c.Engine, c.At)
		}
		if seen[c.Engine] {
			return fmt.Errorf("faults: engine %d crashes twice", c.Engine)
		}
		seen[c.Engine] = true
	}
	for _, st := range s.Stragglers {
		if st.Engine < 0 || st.Engine >= numEngines {
			return fmt.Errorf("faults: straggler engine %d out of range [0,%d)", st.Engine, numEngines)
		}
		if !finite(st.From, st.To, st.Factor) {
			return fmt.Errorf("faults: straggler on engine %d has a non-finite bound or factor", st.Engine)
		}
		if st.From < 0 || st.To <= st.From {
			return fmt.Errorf("faults: straggler on engine %d has empty interval [%g,%g)", st.Engine, st.From, st.To)
		}
		if st.Factor < 1 {
			return fmt.Errorf("faults: straggler factor %g on engine %d, must be >= 1", st.Factor, st.Engine)
		}
	}
	for _, d := range s.Degradations {
		if !finite(d.From, d.To, d.Factor) {
			return fmt.Errorf("faults: degradation has a non-finite bound or factor")
		}
		if d.From < 0 || d.To <= d.From {
			return fmt.Errorf("faults: degradation has empty interval [%g,%g)", d.From, d.To)
		}
		if d.Factor < 1 {
			return fmt.Errorf("faults: degradation factor %g, must be >= 1", d.Factor)
		}
	}
	return nil
}

// finite reports whether no x is NaN or infinite.
func finite(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// sortedCrashes returns the crashes ordered by (At, Engine) — the
// deterministic detection order.
func (s *Schedule) sortedCrashes() []Crash {
	out := append([]Crash(nil), s.Crashes...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].Engine < out[j].Engine
	})
	return out
}

// NextCrash returns the earliest crash with At <= before whose index is not
// yet marked in handled, along with that index (into the order Crashes are
// stored). Callers mark the index handled once they have recovered from it.
func (s *Schedule) NextCrash(before float64, handled []bool) (int, Crash, bool) {
	if s == nil {
		return 0, Crash{}, false
	}
	best := -1
	for i, c := range s.Crashes {
		if i < len(handled) && handled[i] {
			continue
		}
		if c.At > before {
			continue
		}
		if best < 0 || c.At < s.Crashes[best].At ||
			(c.At == s.Crashes[best].At && c.Engine < s.Crashes[best].Engine) {
			best = i
		}
	}
	if best < 0 {
		return 0, Crash{}, false
	}
	return best, s.Crashes[best], true
}

// SlowdownAt returns the combined straggler cost multiplier for engine at
// virtual time t (1 when unaffected). Overlapping stragglers compound.
func (s *Schedule) SlowdownAt(engine int, t float64) float64 {
	if s == nil {
		return 1
	}
	f := 1.0
	for _, st := range s.Stragglers {
		if st.Engine == engine && t >= st.From && t < st.To {
			f *= st.Factor
		}
	}
	return f
}

// RemoteFactorAt returns the cluster-network cost multiplier at virtual time
// t (1 when unaffected). Overlapping degradations compound.
func (s *Schedule) RemoteFactorAt(t float64) float64 {
	if s == nil {
		return 1
	}
	f := 1.0
	for _, d := range s.Degradations {
		if t >= d.From && t < d.To {
			f *= d.Factor
		}
	}
	return f
}

// String renders the schedule in the same syntax Parse accepts.
func (s *Schedule) String() string {
	if s.Empty() {
		return "none"
	}
	var parts []string
	for _, c := range s.sortedCrashes() {
		parts = append(parts, fmt.Sprintf("crash:%d@%g", c.Engine, c.At))
	}
	for _, st := range s.Stragglers {
		parts = append(parts, fmt.Sprintf("slow:%d@%g-%gx%g", st.Engine, st.From, st.To, st.Factor))
	}
	for _, d := range s.Degradations {
		parts = append(parts, fmt.Sprintf("degrade@%g-%gx%g", d.From, d.To, d.Factor))
	}
	return strings.Join(parts, " ")
}

// Parse builds a schedule from textual fault specs, one fault per entry:
//
//	crash:E@T        engine E fail-stops at virtual time T
//	slow:E@T1-T2xF   engine E runs F× slower over [T1,T2)
//	degrade@T1-T2xF  cluster-network cost rises F× over [T1,T2)
//
// Example: Parse([]string{"crash:2@30", "slow:0@10-20x2.5"}).
func Parse(specs []string) (*Schedule, error) {
	s := &Schedule{}
	for _, spec := range specs {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		switch {
		case strings.HasPrefix(spec, "crash:"):
			body := strings.TrimPrefix(spec, "crash:")
			engine, rest, ok := strings.Cut(body, "@")
			if !ok {
				return nil, fmt.Errorf("faults: %q: want crash:E@T", spec)
			}
			e, err := strconv.Atoi(engine)
			if err != nil {
				return nil, fmt.Errorf("faults: %q: bad engine: %v", spec, err)
			}
			at, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				return nil, fmt.Errorf("faults: %q: bad time: %v", spec, err)
			}
			s.Crashes = append(s.Crashes, Crash{Engine: e, At: at})
		case strings.HasPrefix(spec, "slow:"):
			body := strings.TrimPrefix(spec, "slow:")
			engine, rest, ok := strings.Cut(body, "@")
			if !ok {
				return nil, fmt.Errorf("faults: %q: want slow:E@T1-T2xF", spec)
			}
			e, err := strconv.Atoi(engine)
			if err != nil {
				return nil, fmt.Errorf("faults: %q: bad engine: %v", spec, err)
			}
			from, to, factor, err := parseWindowFactor(rest)
			if err != nil {
				return nil, fmt.Errorf("faults: %q: %v", spec, err)
			}
			s.Stragglers = append(s.Stragglers, Straggler{Engine: e, From: from, To: to, Factor: factor})
		case strings.HasPrefix(spec, "degrade@"):
			from, to, factor, err := parseWindowFactor(strings.TrimPrefix(spec, "degrade@"))
			if err != nil {
				return nil, fmt.Errorf("faults: %q: %v", spec, err)
			}
			s.Degradations = append(s.Degradations, Degradation{From: from, To: to, Factor: factor})
		default:
			return nil, fmt.Errorf("faults: %q: unknown fault kind (want crash:, slow:, degrade@)", spec)
		}
	}
	return s, nil
}

// parseWindowFactor parses "T1-T2xF".
func parseWindowFactor(s string) (from, to, factor float64, err error) {
	window, factorStr, ok := strings.Cut(s, "x")
	if !ok {
		return 0, 0, 0, fmt.Errorf("want T1-T2xF")
	}
	fromStr, toStr, ok := strings.Cut(window, "-")
	if !ok {
		return 0, 0, 0, fmt.Errorf("want T1-T2xF")
	}
	if from, err = strconv.ParseFloat(fromStr, 64); err != nil {
		return 0, 0, 0, fmt.Errorf("bad interval start: %v", err)
	}
	if to, err = strconv.ParseFloat(toStr, 64); err != nil {
		return 0, 0, 0, fmt.Errorf("bad interval end: %v", err)
	}
	if factor, err = strconv.ParseFloat(factorStr, 64); err != nil {
		return 0, 0, 0, fmt.Errorf("bad factor: %v", err)
	}
	return from, to, factor, nil
}
