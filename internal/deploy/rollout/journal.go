// Package rollout turns "old deployment → new plan" into a
// transactional, make-before-break sequence of per-switch operations:
// new switch configs are staged alongside the old ones under a fresh
// epoch token, program groups flip atomically from the old epoch to
// the new one, and only then is the old state retired. Every op is
// journaled before it runs, so an interrupted rollout either resumes
// to completion or rolls back to the last-good plan; when rollback
// itself is impeded by a dead switch, the switch is quarantined and
// the old plan keeps serving (degrade, never tear).
//
// The invariant the package enforces — and the chaos tests assert at
// every op boundary — is that each program is served entirely by the
// old plan or entirely by the new one at every observable instant,
// never a mix of both.
package rollout

import (
	"bufio"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"github.com/hermes-net/hermes/internal/deploy"
	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/placement"
)

// OpKind names one rollout operation class.
type OpKind string

const (
	// OpPrepare stages a switch's new-epoch config alongside its old
	// one (make-before-break: nothing serves from it yet).
	OpPrepare OpKind = "prepare"
	// OpCommit atomically flips one program group's serving epoch.
	// Epoch carries the target: the new epoch on the forward path, the
	// old epoch when a rollback unflips the group, and 0 when the
	// group's programs are withdrawn from the new plan (serve nothing).
	OpCommit OpKind = "commit"
	// OpRetire removes a switch's old-epoch config after every group
	// has flipped forward.
	OpRetire OpKind = "retire"
	// OpAbort removes a switch's staged new-epoch config during
	// rollback, restoring the pre-rollout footprint.
	OpAbort OpKind = "abort"
)

// Status tracks one journaled op's lifecycle.
type Status string

const (
	// StatusPending means the op was journaled but has not succeeded.
	StatusPending Status = "pending"
	// StatusDone means the op's effect is applied on the fabric.
	StatusDone Status = "done"
	// StatusFailed means retries were exhausted; the engine reacted
	// (rollback or quarantine) and the op will not be re-run.
	StatusFailed Status = "failed"
)

// Op is one idempotent rollout operation. Switch ops (prepare, retire,
// abort) target a switch+epoch pair; commit ops target a program
// group. Re-applying a done op is a no-op on the fabric, which is what
// makes journal replay safe.
type Op struct {
	// Seq orders ops globally within one rollout; resume matches
	// journal entries to regenerated ops by Seq.
	Seq int
	// Kind is the op class.
	Kind OpKind
	// Switch is the target for prepare/retire/abort ops.
	Switch network.SwitchID
	// Group names the program group for commit ops.
	Group string
	// Epoch is the config epoch the op manipulates (for commits, the
	// target serving epoch; 0 means "serve nothing").
	Epoch uint64
}

func (o Op) String() string {
	if o.Kind == OpCommit {
		return fmt.Sprintf("%d %s %s epoch=%d", o.Seq, o.Kind, strconv.Quote(o.Group), o.Epoch)
	}
	return fmt.Sprintf("%d %s sw=%d epoch=%d", o.Seq, o.Kind, o.Switch, o.Epoch)
}

// Entry is one journaled op plus its observed outcome.
type Entry struct {
	Op
	Status   Status
	Attempts int
}

// Journal is the durable record of one rollout: the epoch pair, a
// fingerprint binding it to the exact old→new plan pair, and one entry
// per issued op in issue order. Its text form round-trips through
// Format/ParseJournal so a resumed process can replay to a consistent
// state.
type Journal struct {
	From        uint64
	To          uint64
	Fingerprint uint64
	Entries     []*Entry
}

// append journals a fresh pending entry for op and returns it.
func (j *Journal) append(op Op) *Entry {
	e := &Entry{Op: op, Status: StatusPending}
	j.Entries = append(j.Entries, e)
	return e
}

// Format renders the journal as text, one op per line:
//
//	rollout from=1 to=2 fingerprint=ab54a98ceb1f0ad2
//	0 prepare sw=3 epoch=2 done attempts=1
//	4 commit "p1" epoch=2 pending attempts=0
//
// The format is strict (ParseJournal rejects anything it would not
// itself emit) and stable: Format∘ParseJournal is the identity.
func (j *Journal) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "rollout from=%d to=%d fingerprint=%016x\n", j.From, j.To, j.Fingerprint)
	for _, e := range j.Entries {
		fmt.Fprintf(&b, "%s %s attempts=%d\n", e.Op.String(), e.Status, e.Attempts)
	}
	return b.String()
}

// ParseJournal parses Format's output back into a Journal.
func ParseJournal(text string) (*Journal, error) {
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	if !sc.Scan() {
		return nil, fmt.Errorf("rollout: empty journal")
	}
	header := strings.Fields(sc.Text())
	if len(header) != 4 || header[0] != "rollout" {
		return nil, fmt.Errorf("rollout: bad journal header %q", sc.Text())
	}
	j := &Journal{}
	var err error
	if j.From, err = parseKV(header[1], "from", 10); err != nil {
		return nil, err
	}
	if j.To, err = parseKV(header[2], "to", 10); err != nil {
		return nil, err
	}
	if j.Fingerprint, err = parseKV(header[3], "fingerprint", 16); err != nil {
		return nil, err
	}
	if j.To == j.From {
		return nil, fmt.Errorf("rollout: journal epochs must differ (from=%d to=%d)", j.From, j.To)
	}
	lineNo := 1
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		e, err := parseEntry(line)
		if err != nil {
			return nil, fmt.Errorf("rollout: journal line %d: %w", lineNo, err)
		}
		if len(j.Entries) > 0 && e.Seq <= j.Entries[len(j.Entries)-1].Seq {
			return nil, fmt.Errorf("rollout: journal line %d: seq %d out of order", lineNo, e.Seq)
		}
		j.Entries = append(j.Entries, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("rollout: reading journal: %w", err)
	}
	return j, nil
}

func parseKV(field, key string, base int) (uint64, error) {
	prefix := key + "="
	if !strings.HasPrefix(field, prefix) {
		return 0, fmt.Errorf("rollout: journal: want %s=..., got %q", key, field)
	}
	v, err := strconv.ParseUint(field[len(prefix):], base, 64)
	if err != nil {
		return 0, fmt.Errorf("rollout: journal %s: %w", key, err)
	}
	return v, nil
}

func parseEntry(line string) (*Entry, error) {
	// <seq> <kind> <target> epoch=<n> <status> attempts=<n>, where
	// <target> is sw=<id> for switch ops and a quoted (possibly
	// space-containing) group name for commits.
	head := strings.SplitN(line, " ", 3)
	if len(head) != 3 {
		return nil, fmt.Errorf("truncated entry %q", line)
	}
	seq, err := strconv.Atoi(head[0])
	if err != nil || seq < 0 {
		return nil, fmt.Errorf("bad seq %q", head[0])
	}
	e := &Entry{Op: Op{Seq: seq, Kind: OpKind(head[1])}}
	rest := head[2]
	switch e.Kind {
	case OpPrepare, OpRetire, OpAbort:
		fields := strings.Fields(rest)
		if len(fields) != 4 {
			return nil, fmt.Errorf("want 4 trailing fields, got %d in %q", len(fields), rest)
		}
		sw, err := parseKV(fields[0], "sw", 10)
		if err != nil {
			return nil, err
		}
		e.Switch = network.SwitchID(sw)
		rest = strings.Join(fields[1:], " ")
	case OpCommit:
		q, err := strconv.QuotedPrefix(rest)
		if err != nil {
			return nil, fmt.Errorf("bad commit group in %q: %v", rest, err)
		}
		group, err := strconv.Unquote(q)
		if err != nil || group == "" {
			return nil, fmt.Errorf("bad commit group %q", q)
		}
		e.Group = group
		rest = strings.TrimPrefix(rest[len(q):], " ")
	default:
		return nil, fmt.Errorf("unknown op kind %q", head[1])
	}
	fields := strings.Fields(rest)
	if len(fields) != 3 {
		return nil, fmt.Errorf("want epoch/status/attempts, got %q", rest)
	}
	if e.Epoch, err = parseKV(fields[0], "epoch", 10); err != nil {
		return nil, err
	}
	switch Status(fields[1]) {
	case StatusPending, StatusDone, StatusFailed:
		e.Status = Status(fields[1])
	default:
		return nil, fmt.Errorf("unknown status %q", fields[1])
	}
	att, err := parseKV(fields[2], "attempts", 10)
	if err != nil {
		return nil, err
	}
	e.Attempts = int(att)
	return e, nil
}

// fingerprint binds a journal to one exact old→new transition: a hash
// over both plans' MAT→switch assignments plus the epoch pair, so a
// resumed rollout refuses a journal recorded for different plans.
//
// The hashed bytes are a persisted format (journals on disk carry the
// value): FNV-1a 64 over "old", then name@switch:start; per old-plan
// MAT in name order, then "new" and the same for the new plan, then
// |from>to — every integer in decimal (DESIGN §15.2). A plan whose MAT
// set is its graph's node set, as every heal's plans are, reads its
// by-id store in the name order of the graph's index instead of sorting;
// only a plan that places MATs outside its graph, or leaves some
// unplaced, sorts its assignment map's names.
func fingerprint(old, next *deploy.Deployment, from, to uint64) uint64 {
	h := uint64(1469598103934665603) // one digit short of FNV-64's basis; persisted, keep it
	var buf []byte
	mixEntry := func(name string, sp placement.StagePlacement) {
		h = fnvMix(h, name)
		buf = append(buf[:0], '@')
		buf = strconv.AppendInt(buf, int64(sp.Switch), 10)
		buf = append(buf, ':')
		buf = strconv.AppendInt(buf, int64(sp.Start), 10)
		buf = append(buf, ';')
		h = fnvMix(h, buf)
	}
	mixPlan := func(tag string, p *placement.Plan) {
		h = fnvMix(h, tag)
		as := p.Assignments
		if p.Graph != nil && len(as) == p.Graph.NumNodes() {
			// A by-id store placing every node, beside an assignment map
			// of the same size, proves the MAT sets equal.
			ix, pl, start, complete := p.Graph.Index(), p.Placements(), h, true
			//hermes:hot
			for _, id := range ix.ByName {
				if complete = pl[id].Placed(); !complete {
					break
				}
				mixEntry(ix.Names[id], pl[id])
			}
			if complete {
				return
			}
			h = start
		}
		names := make([]string, 0, len(as))
		for name := range as {
			names = append(names, name)
		}
		slices.Sort(names)
		for _, name := range names {
			mixEntry(name, as[name])
		}
	}
	mixPlan("old", old.Plan)
	mixPlan("new", next.Plan)
	buf = append(buf[:0], '|')
	buf = strconv.AppendUint(buf, from, 10)
	buf = append(buf, '>')
	buf = strconv.AppendUint(buf, to, 10)
	return fnvMix(h, buf)
}

// fnvMix folds the bytes of b into the FNV-1a 64 state h.
func fnvMix[T string | []byte](h uint64, b T) uint64 {
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= 1099511628211
	}
	return h
}
