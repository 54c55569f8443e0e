package telemetry

// Span identifies a node in the causal tree of a run: request → job →
// sweep point → engine batch. IDs are deterministic path strings
// (e.g. "j-000001/p5") rather than random hex, so a trace file can be
// reconstructed into a timeline with plain string operations and two runs
// of the same job produce identical span IDs — span-tagged traces stay
// diffable the same way results do.
//
// The zero Span is "no span": Child of a zero Span stays zero, and
// Fields/Tag on a zero Span add nothing, so span plumbing through
// uninstrumented paths is free and emits no extra JSON keys.
type Span struct {
	ID     string `json:"span,omitempty"`
	Parent string `json:"parent,omitempty"`
}

// Root returns a root span with the given ID and no parent. An empty id
// yields the zero Span.
func Root(id string) Span { return Span{ID: id} }

// Child derives a child span by appending "/suffix" to the ID; the child's
// Parent is the receiver's ID. On the zero Span it returns the zero Span,
// so unset spans propagate as unset.
func (s Span) Child(suffix string) Span {
	if s.ID == "" {
		return Span{}
	}
	return Span{ID: s.ID + "/" + suffix, Parent: s.ID}
}

// Zero reports whether the span is unset.
func (s Span) Zero() bool { return s.ID == "" }

// Tag copies fields and adds the span's "span" and "parent" keys (omitting
// empty ones). The input map is never mutated; on a zero Span the original
// map is returned unchanged.
func (s Span) Tag(fields map[string]any) map[string]any {
	if s.ID == "" {
		return fields
	}
	ev := make(map[string]any, len(fields)+2)
	for k, v := range fields {
		ev[k] = v
	}
	ev["span"] = s.ID
	if s.Parent != "" {
		ev["parent"] = s.Parent
	}
	return ev
}

// EmitSpan writes one event line of the given type tagged with the span's
// "span" and "parent" fields. With a zero span it behaves exactly like
// Emit. No-op on nil.
func (t *Trace) EmitSpan(typ string, span Span, fields map[string]any) {
	if t == nil {
		return
	}
	t.Emit(typ, span.Tag(fields))
}
