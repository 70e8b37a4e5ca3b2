package network

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"strings"
)

// faultgen: a seeded, deterministic fault-schedule generator for the
// supervisor's chaos testing and the Exp#8 survivability sweep. A
// Schedule is a tick-ordered list of fault-layer mutations drawn from
// four failure archetypes:
//
//   - crash: one switch goes down and heals after a sampled downtime;
//   - link-cut: one link goes down and heals after a sampled downtime;
//   - flap: one switch bounces down/up several times in quick
//     succession (the churn the monitor's K-of-N confirmation must
//     absorb);
//   - region: a correlated outage — a switch and its up neighbors fail
//     together and heal together.
//
// Generation simulates the schedule against a shadow clone so every
// prefix of the schedule keeps the surviving subgraph connected and
// keeps at least MinUpProgrammable programmable switches up; candidate
// events that would violate either guard are skipped. The same
// (topology, options) always yields the same schedule.

// FaultOp names one fault-layer mutation.
type FaultOp string

const (
	OpSwitchDown FaultOp = "switch-down"
	OpSwitchUp   FaultOp = "switch-up"
	OpLinkDown   FaultOp = "link-down"
	OpLinkUp     FaultOp = "link-up"
)

// FaultEvent is one scheduled mutation. Switch events use Switch; link
// events use LinkA/LinkB.
type FaultEvent struct {
	// Tick is the event's position on the schedule's logical clock.
	Tick int     `json:"tick"`
	Op   FaultOp `json:"op"`
	// Switch is the target of switch-down/switch-up.
	Switch SwitchID `json:"switch,omitempty"`
	// LinkA, LinkB are the endpoints of link-down/link-up.
	LinkA SwitchID `json:"link_a,omitempty"`
	LinkB SwitchID `json:"link_b,omitempty"`
}

// Apply performs the event's mutation on t.
func (e FaultEvent) Apply(t *Topology) error {
	switch e.Op {
	case OpSwitchDown:
		return t.SetSwitchDown(e.Switch)
	case OpSwitchUp:
		return t.SetSwitchUp(e.Switch)
	case OpLinkDown:
		return t.SetLinkDown(e.LinkA, e.LinkB)
	case OpLinkUp:
		return t.SetLinkUp(e.LinkA, e.LinkB)
	default:
		return fmt.Errorf("network: unknown fault op %q", e.Op)
	}
}

func (e FaultEvent) String() string {
	switch e.Op {
	case OpSwitchDown, OpSwitchUp:
		return fmt.Sprintf("%d %s %d", e.Tick, e.Op, e.Switch)
	default:
		return fmt.Sprintf("%d %s %d %d", e.Tick, e.Op, e.LinkA, e.LinkB)
	}
}

// Schedule is a tick-ordered fault sequence.
type Schedule struct {
	Events []FaultEvent `json:"events"`
}

// Format renders the schedule in the one-event-per-line text form read
// back by ParseSchedule.
func (s *Schedule) Format() string {
	var b strings.Builder
	for _, e := range s.Events {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// ParseSchedule reads the text form: one `<tick> <op> <args>` event per
// line; blank lines and #-comments are skipped.
func ParseSchedule(r io.Reader) (*Schedule, error) {
	var s Schedule
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			return nil, fmt.Errorf("network: schedule line %d: want `<tick> <op> <args>`, got %q", lineNo, line)
		}
		var e FaultEvent
		if _, err := fmt.Sscanf(fields[0], "%d", &e.Tick); err != nil {
			return nil, fmt.Errorf("network: schedule line %d: bad tick %q", lineNo, fields[0])
		}
		e.Op = FaultOp(fields[1])
		switch e.Op {
		case OpSwitchDown, OpSwitchUp:
			if _, err := fmt.Sscanf(fields[2], "%d", &e.Switch); err != nil {
				return nil, fmt.Errorf("network: schedule line %d: bad switch %q", lineNo, fields[2])
			}
		case OpLinkDown, OpLinkUp:
			if len(fields) < 4 {
				return nil, fmt.Errorf("network: schedule line %d: link event wants two endpoints", lineNo)
			}
			if _, err := fmt.Sscanf(fields[2], "%d", &e.LinkA); err != nil {
				return nil, fmt.Errorf("network: schedule line %d: bad endpoint %q", lineNo, fields[2])
			}
			if _, err := fmt.Sscanf(fields[3], "%d", &e.LinkB); err != nil {
				return nil, fmt.Errorf("network: schedule line %d: bad endpoint %q", lineNo, fields[3])
			}
		default:
			return nil, fmt.Errorf("network: schedule line %d: unknown op %q", lineNo, fields[1])
		}
		s.Events = append(s.Events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return &s, nil
}

// ScheduleOptions parameterizes GenerateSchedule. Zero values take the
// documented defaults.
type ScheduleOptions struct {
	// Seed drives every random choice; equal seeds yield equal schedules.
	Seed int64
	// Events is the number of fault *injections* to generate (heals are
	// extra events appended automatically). Default 10.
	Events int
	// MinUpProgrammable is the guard on surviving capacity: no schedule
	// prefix may leave fewer up programmable switches. Default 1.
	MinUpProgrammable int
}

// meanDowntime is the average ticks a crash/link-cut stays down before
// its heal.
const meanDowntime = 6

// The four archetypes' relative draw weights.
const (
	crashWeight   = 4
	linkCutWeight = 3
	flapWeight    = 2
	regionWeight  = 1
)

func (o *ScheduleOptions) defaults() {
	if o.Events <= 0 {
		o.Events = 10
	}
	if o.MinUpProgrammable <= 0 {
		o.MinUpProgrammable = 1
	}
}

// GenerateSchedule produces a deterministic fault schedule for t. The
// returned events are ordered by tick (ties broken by generation
// order); applying any prefix leaves the surviving subgraph connected
// with at least MinUpProgrammable programmable switches up.
func GenerateSchedule(t *Topology, opts ScheduleOptions) (*Schedule, error) {
	opts.defaults()
	rng := rand.New(rand.NewSource(opts.Seed))
	shadow := t.Clone()
	shadow.Heal()

	upProg := func(tp *Topology) int { return tp.NumProgrammable() }
	if upProg(shadow) < opts.MinUpProgrammable {
		return nil, fmt.Errorf("network: topology %q has only %d programmable switches, need %d", t.Name, upProg(shadow), opts.MinUpProgrammable)
	}

	var sched Schedule
	// Emission order IS the schedule order: emit clamps ticks to be
	// non-decreasing, so the shadow's state after each emitted event is
	// exactly the consumer's state after the same schedule prefix — the
	// guards are therefore checked on every single event, not just on
	// injection batches.
	lastTick := 0
	emit := func(e FaultEvent) {
		if e.Tick < lastTick {
			e.Tick = lastTick
		}
		lastTick = e.Tick
		sched.Events = append(sched.Events, e)
	}

	flipOp := func(op FaultOp) FaultOp {
		switch op {
		case OpSwitchDown:
			return OpSwitchUp
		case OpSwitchUp:
			return OpSwitchDown
		case OpLinkDown:
			return OpLinkUp
		default:
			return OpLinkDown
		}
	}
	// pending per-event heals not yet applied to the shadow.
	type pendingUp struct {
		tick int
		ev   FaultEvent
	}
	var heals []pendingUp

	// healSafe applies one up event to the shadow and keeps it only if
	// the surviving subgraph stays connected (healing a region's center
	// before its neighbors would isolate it); otherwise rolls back.
	healSafe := func(e FaultEvent) bool {
		if err := e.Apply(shadow); err != nil {
			panic("network: faultgen shadow heal failed: " + err.Error())
		}
		if shadow.Connected() {
			return true
		}
		down := e
		down.Op = flipOp(e.Op)
		if err := down.Apply(shadow); err != nil {
			panic("network: faultgen heal rollback failed: " + err.Error())
		}
		return false
	}
	// applyDue drains heals due by now, deferring any that are not yet
	// safe; looping to a fixpoint guarantees e.g. a region heals
	// neighbors-first regardless of queue order.
	applyDue := func(now int) {
		for {
			progress := false
			kept := heals[:0]
			for _, h := range heals {
				if h.tick <= now && healSafe(h.ev) {
					ev := h.ev
					ev.Tick = h.tick
					emit(ev)
					progress = true
				} else {
					kept = append(kept, h)
				}
			}
			heals = kept
			if !progress {
				return
			}
		}
	}
	// guardOK applies downs to the shadow one at a time and reports
	// whether every intermediate state keeps the guards; on violation it
	// rolls all applied downs back.
	guardOK := func(downs []FaultEvent) bool {
		applied := 0
		ok := true
		for _, e := range downs {
			if err := e.Apply(shadow); err != nil {
				ok = false
				break
			}
			applied++
			if upProg(shadow) < opts.MinUpProgrammable || !shadow.Connected() {
				ok = false
				break
			}
		}
		if !ok {
			for i := applied - 1; i >= 0; i-- {
				e := downs[i]
				e.Op = flipOp(e.Op)
				if err := e.Apply(shadow); err != nil {
					panic("network: faultgen rollback failed: " + err.Error())
				}
			}
		}
		return ok
	}
	downtime := func() int { return 1 + rng.Intn(2*meanDowntime-1) }
	// queueHeals schedules the inverse of downs at tick ht, reversed so a
	// region tends to heal neighbors-first (applyDue defers unsafe ones
	// anyway).
	queueHeals := func(downs []FaultEvent, ht int) {
		for i := len(downs) - 1; i >= 0; i-- {
			up := downs[i]
			up.Tick = ht
			up.Op = flipOp(up.Op)
			heals = append(heals, pendingUp{tick: ht, ev: up})
		}
	}

	const totalW = crashWeight + linkCutWeight + flapWeight + regionWeight
	tick := 0
	injected := 0
	attempts := 0
	maxAttempts := opts.Events * 50
	for injected < opts.Events && attempts < maxAttempts {
		attempts++
		tick += 1 + rng.Intn(3)
		applyDue(tick)

		roll := rng.Intn(totalW)
		switch {
		case roll < crashWeight: // crash
			ups := shadow.ProgrammableSwitches()
			// Crashes may also hit non-programmable transit switches.
			all := upSwitches(shadow)
			if len(all) == 0 {
				continue
			}
			var target SwitchID
			if len(ups) > 0 && rng.Intn(4) != 0 {
				target = ups[rng.Intn(len(ups))]
			} else {
				target = all[rng.Intn(len(all))]
			}
			downs := []FaultEvent{{Tick: tick, Op: OpSwitchDown, Switch: target}}
			if !guardOK(downs) {
				continue
			}
			for _, e := range downs {
				emit(e)
			}
			ht := tick + downtime()
			queueHeals(downs, ht)
			injected++

		case roll < crashWeight+linkCutWeight: // link-cut
			links := upLinks(shadow)
			if len(links) == 0 {
				continue
			}
			l := links[rng.Intn(len(links))]
			downs := []FaultEvent{{Tick: tick, Op: OpLinkDown, LinkA: l.A, LinkB: l.B}}
			if !guardOK(downs) {
				continue
			}
			for _, e := range downs {
				emit(e)
			}
			ht := tick + downtime()
			queueHeals(downs, ht)
			injected++

		case roll < crashWeight+linkCutWeight+flapWeight: // flap
			all := upSwitches(shadow)
			if len(all) == 0 {
				continue
			}
			target := all[rng.Intn(len(all))]
			downs := []FaultEvent{{Tick: tick, Op: OpSwitchDown, Switch: target}}
			if !guardOK(downs) {
				continue
			}
			// Bounce 2–4 times: down/up pairs one tick apart. The shadow
			// ends in the up state, so no pending heal is queued.
			bounces := 2 + rng.Intn(3)
			ft := tick
			for b := 0; b < bounces; b++ {
				emit(FaultEvent{Tick: ft, Op: OpSwitchDown, Switch: target})
				ft++
				emit(FaultEvent{Tick: ft, Op: OpSwitchUp, Switch: target})
				ft++
			}
			if err := shadow.SetSwitchUp(target); err != nil {
				panic("network: faultgen flap restore failed: " + err.Error())
			}
			// Advance past the flap window so later injections (guard-checked
			// with this switch up) cannot land inside a down bounce.
			tick = ft
			injected++

		default: // correlated regional outage
			all := upSwitches(shadow)
			if len(all) == 0 {
				continue
			}
			center := all[rng.Intn(len(all))]
			region := []SwitchID{center}
			for _, nb := range shadow.Neighbors(center) {
				if !shadow.SwitchIsDown(nb) {
					region = append(region, nb)
				}
			}
			// Cap the blast radius at 3 switches so the guard has a chance
			// on sparse topologies.
			if len(region) > 3 {
				region = region[:3]
			}
			downs := make([]FaultEvent, len(region))
			for i, id := range region {
				downs[i] = FaultEvent{Tick: tick, Op: OpSwitchDown, Switch: id}
			}
			if !guardOK(downs) {
				continue
			}
			for _, e := range downs {
				emit(e)
			}
			ht := tick + downtime()
			queueHeals(downs, ht)
			injected++
		}
	}
	// Flush remaining heals so every schedule ends fully healed. The
	// fixpoint loop in applyDue always makes progress: while any element
	// is down, at least one down element borders the up component, and
	// healing it is safe.
	for len(heals) > 0 {
		before := len(heals)
		applyDue(1 << 30)
		if len(heals) == before {
			panic("network: faultgen final heal stuck")
		}
	}
	if shadow.HasFaults() {
		panic("network: faultgen shadow not fully healed")
	}
	if injected < opts.Events {
		return nil, fmt.Errorf("network: faultgen could only place %d/%d events on %q under guards", injected, opts.Events, t.Name)
	}
	return &sched, nil
}

// upSwitches lists switches not marked down, ascending.
func upSwitches(t *Topology) []SwitchID {
	var out []SwitchID
	for _, s := range t.Switches() {
		if !t.SwitchIsDown(s.ID) {
			out = append(out, s.ID)
		}
	}
	return out
}

// upLinks lists links whose endpoints and the link itself are up.
func upLinks(t *Topology) []Link {
	var out []Link
	for _, l := range t.Links() {
		if t.LinkIsDown(l.A, l.B) || t.SwitchIsDown(l.A) || t.SwitchIsDown(l.B) {
			continue
		}
		out = append(out, l)
	}
	return out
}
