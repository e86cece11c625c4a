package audit

import (
	"spritelynfs/internal/core"
	"spritelynfs/internal/proto"
)

// shadowClient mirrors one client's open counts for a file.
type shadowClient struct {
	readers int
	writers int
}

// shadowEntry is the auditor's replica of one state-table entry, rebuilt
// purely from observed transition events.
type shadowEntry struct {
	state   core.FileState
	version uint32
	known   bool // a version has been observed (monotonicity floor valid)
	clients map[core.ClientID]*shadowClient
}

func (a *Auditor) shadowFor(h proto.Handle) *shadowEntry {
	e, ok := a.shadow[h]
	if !ok {
		e = &shadowEntry{state: core.StateClosed, clients: make(map[core.ClientID]*shadowClient)}
		a.shadow[h] = e
	}
	return e
}

// checkTransition replays ev against the shadow machine and flags every
// invariant breach. Caller holds a.mu.
func (a *Auditor) checkTransition(op uint64, ev core.TransitionEvent) {
	e := a.shadowFor(ev.Handle)

	// The reported pre-state must match the shadow's view of the world.
	if e.known && ev.From != e.state {
		a.violate(op, InvTransition, ev.Handle,
			"%s reports pre-state %s but shadow is in %s", ev.Event, ev.From, e.state)
	}

	// (a) the edge itself must appear in Table 4-1.
	if !legalEdge(ev) {
		a.violate(op, InvTransition, ev.Handle,
			"%s(write=%v): %s -> %s is not a legal Table 4-1 transition",
			ev.Event, ev.Write, ev.From, ev.To)
	}

	// (b) version monotonicity and the previous-version rule.
	if e.known {
		if ev.Version < e.version {
			a.violate(op, InvVersion, ev.Handle,
				"%s: version regressed %d -> %d", ev.Event, e.version, ev.Version)
		}
		if ev.Event == "open" && ev.Write {
			if ev.Version <= ev.Prev {
				a.violate(op, InvPrevVersion, ev.Handle,
					"open-for-write: version %d not above prev %d", ev.Version, ev.Prev)
			}
			if ev.Prev != e.version {
				a.violate(op, InvPrevVersion, ev.Handle,
					"open-for-write: prev %d does not record prior version %d", ev.Prev, e.version)
			}
		}
	}

	// (c) nobody caches a write-shared file.
	if ev.To == core.StateWriteShared && len(ev.Caching) > 0 {
		a.violate(op, InvWriteShared, ev.Handle,
			"%s: %d client(s) still caching in WRITE-SHARED", ev.Event, len(ev.Caching))
	}

	// Replay the event into the shadow's open counts.
	switch ev.Event {
	case "open":
		sc := e.clients[ev.Client]
		if sc == nil {
			sc = &shadowClient{}
			e.clients[ev.Client] = sc
		}
		if ev.Write {
			sc.writers++
		} else {
			sc.readers++
		}
	case "close":
		if sc := e.clients[ev.Client]; sc != nil {
			if ev.Write {
				if sc.writers > 0 {
					sc.writers--
				}
			} else if sc.readers > 0 {
				sc.readers--
			}
			if sc.readers == 0 && sc.writers == 0 {
				delete(e.clients, ev.Client)
			}
		}
	case "client-dead":
		delete(e.clients, ev.Client)
	case "recover":
		if ev.Readers > 0 || ev.Writers > 0 {
			e.clients[ev.Client] = &shadowClient{readers: int(ev.Readers), writers: int(ev.Writers)}
		}
	case "drop":
		delete(a.shadow, ev.Handle)
		return
	}
	if ev.Dropped {
		// The entry left the table (reclamation); the version floor
		// dies with it — a reopen legitimately restarts at 0.
		delete(a.shadow, ev.Handle)
		return
	}

	// The post-state must match what Table 4-1 derives from the open
	// counts, the recorded last writer, and the caching grants.
	if derived := deriveState(e, ev); derived != ev.To {
		a.violate(op, InvTransition, ev.Handle,
			"%s: reached %s but Table 4-1 derives %s from the open counts",
			ev.Event, ev.To, derived)
	}

	e.state = ev.To
	e.version = ev.Version
	e.known = true
}

// deriveState recomputes the Table 4-1 state from the shadow's open
// counts plus the event's post-mutation lastWriter and caching grants —
// an independent check that the table's own derivation agrees with the
// paper's table.
func deriveState(e *shadowEntry, ev core.TransitionEvent) core.FileState {
	caching := make(map[core.ClientID]bool, len(ev.Caching))
	for _, c := range ev.Caching {
		caching[c] = true
	}
	writers := 0
	var only core.ClientID
	for id, sc := range e.clients {
		writers += sc.writers
		only = id
	}
	switch {
	case len(e.clients) == 0:
		if ev.LastWriter != "" {
			return core.StateClosedDirty
		}
		return core.StateClosed
	case writers > 0:
		if len(e.clients) == 1 && caching[only] {
			return core.StateOneWriter
		}
		return core.StateWriteShared
	case len(e.clients) == 1:
		if ev.LastWriter == only && caching[only] {
			return core.StateOneRdrDirty
		}
		return core.StateOneReader
	default:
		return core.StateMultReaders
	}
}

// legalEdge reports whether ev's From -> To is an edge Table 4-1 permits
// for the event. Events whose outcome is wholly determined by recovery or
// death recomputation (client-dead, recover) are constrained by the
// derivation check instead.
func legalEdge(ev core.TransitionEvent) bool {
	from, to := ev.From, ev.To
	allow := func(states ...core.FileState) bool {
		for _, s := range states {
			if to == s {
				return true
			}
		}
		return false
	}
	switch ev.Event {
	case "open":
		if ev.Write {
			switch from {
			case core.StateClosed, core.StateClosedDirty:
				return allow(core.StateOneWriter)
			case core.StateOneReader, core.StateOneRdrDirty, core.StateOneWriter:
				return allow(core.StateOneWriter, core.StateWriteShared)
			case core.StateMultReaders, core.StateWriteShared:
				return allow(core.StateWriteShared)
			}
			return false
		}
		switch from {
		case core.StateClosed:
			return allow(core.StateOneReader)
		case core.StateClosedDirty:
			return allow(core.StateOneReader, core.StateOneRdrDirty)
		case core.StateOneReader:
			return allow(core.StateOneReader, core.StateMultReaders)
		case core.StateOneRdrDirty:
			return allow(core.StateOneRdrDirty, core.StateMultReaders)
		case core.StateMultReaders:
			return allow(core.StateMultReaders)
		case core.StateOneWriter:
			return allow(core.StateOneWriter, core.StateWriteShared)
		case core.StateWriteShared:
			return allow(core.StateWriteShared)
		}
		return false
	case "close":
		switch from {
		case core.StateOneReader:
			return allow(core.StateOneReader, core.StateClosed)
		case core.StateOneRdrDirty:
			return allow(core.StateOneRdrDirty, core.StateClosedDirty)
		case core.StateMultReaders:
			return allow(core.StateMultReaders, core.StateOneReader,
				core.StateOneRdrDirty, core.StateClosed)
		case core.StateOneWriter:
			return allow(core.StateOneWriter, core.StateOneReader,
				core.StateOneRdrDirty, core.StateClosedDirty, core.StateClosed)
		case core.StateWriteShared:
			return allow(core.StateWriteShared, core.StateMultReaders,
				core.StateOneReader, core.StateClosed)
		}
		return false
	case "reclaim":
		return (from == core.StateClosedDirty || from == core.StateClosed) &&
			to == core.StateClosed
	case "drop":
		return to == core.StateClosed
	case "invalidate":
		return from == to
	case "client-dead", "recover":
		return true // constrained by the derivation check
	}
	return true // unknown event kinds are not edge-checked
}
