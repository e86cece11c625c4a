package core

import (
	"slices"
	"strconv"

	"spritelynfs/internal/proto"
)

// Test-only access for the exhaustive searches (search_test.go,
// caches_test.go), which branch from every state they reach.

// CopyFrom makes t a deep copy of src without its Observer, reusing t's
// map and entries, so that a search branches from a state it reached.
func (t *Table) CopyFrom(src *Table) {
	entries := t.entries
	if entries == nil {
		entries = make(map[proto.Handle]*entry, len(src.entries))
	}
	for h := range entries {
		if src.entries[h] == nil {
			delete(entries, h)
		}
	}
	*t = *src
	t.Observer = nil
	t.entries = entries
	for h, e := range src.entries {
		d := entries[h]
		if d == nil {
			d = &entry{}
			entries[h] = d
		}
		clients := d.clients[:0]
		*d = *e
		d.clients = append(clients, e.clients...)
	}
}

// SetLimit rebounds the table to maxEntries (0: the default), as a server
// configured with that TableLimit would run it.
func (t *Table) SetLimit(maxEntries int) {
	if maxEntries == 0 {
		maxEntries = 1000
	}
	t.maxEntries = maxEntries
}

// Renumber rewrites every version number the table holds, and those
// extra points at (the version labels of client records), as its rank
// among them, 0 staying 0. The table only orders and compares versions,
// so a renumbered table behaves as the original does, and a search over
// renumbered states is finite.
func (t *Table) Renumber(extra ...*uint32) {
	var vsBuf [16]*uint32
	var valsBuf [17]uint32
	vs := append(vsBuf[:0], &t.nextVer, &t.fresh)
	for _, e := range t.entries {
		vs = append(vs, &e.version, &e.prev)
	}
	vs = append(vs, extra...)
	vals := append(valsBuf[:0], 0)
	for _, v := range vs {
		vals = append(vals, *v)
	}
	slices.Sort(vals)
	vals = slices.Compact(vals)
	for _, v := range vs {
		r, _ := slices.BinarySearch(vals, *v)
		*v = uint32(r)
	}
}

// AppendKey appends an encoding of everything the table's future
// transitions depend on, for the searches' visited sets: entries in
// handle order, each with its state, versions, last writer, warning flag
// and clients in table order, each client written as name gives it (a
// search that treats clients as interchangeable renames them). Recency
// stamps are left out: they only order reclamation victims, and the
// searches' tables never hold two candidates at once.
func (t *Table) AppendKey(b []byte, name func(ClientID) byte) []byte {
	var hsBuf [4]proto.Handle
	hs := hsBuf[:0]
	for h := range t.entries {
		hs = append(hs, h)
	}
	slices.SortFunc(hs, func(a, b proto.Handle) int {
		if a.Less(b) {
			return -1
		}
		return 1
	})
	b = strconv.AppendUint(b, uint64(t.nextVer), 10)
	b = append(b, '/')
	b = strconv.AppendUint(b, uint64(t.fresh), 10)
	for _, h := range hs {
		e := t.entries[h]
		b = append(b, '|')
		b = strconv.AppendUint(b, h.Ino, 10)
		b = append(b, byte('0'+e.state), ' ')
		b = strconv.AppendUint(b, uint64(e.version), 10)
		b = append(b, '/')
		b = strconv.AppendUint(b, uint64(e.prev), 10)
		b = append(b, ' ')
		if e.lastWriter != "" {
			b = append(b, name(e.lastWriter))
		}
		if e.inconsistent {
			b = append(b, '!')
		}
		for _, ci := range e.clients {
			b = append(b, ' ', name(ci.id), byte('0'+ci.readers), byte('0'+ci.writers))
			if ci.caching {
				b = append(b, '*')
			}
		}
	}
	return b
}

// Has reports whether the table holds an entry for h.
func (t *Table) Has(h proto.Handle) bool {
	_, ok := t.entries[h]
	return ok
}
