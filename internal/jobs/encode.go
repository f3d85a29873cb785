package jobs

import (
	"strconv"

	"cerfix/internal/core"
	"cerfix/internal/jsonenc"
	"cerfix/internal/pipeline"
	"cerfix/internal/schema"
)

// ResultEncoder renders TupleResult records — the per-tuple JSON shape
// shared by the jobs results.jsonl artifact and the synchronous
// POST /api/v1/fix results array — straight from a pipeline.Result into a
// caller-owned buffer, byte-identical to
// json.Marshal(NewTupleResult(sch, r)) without building the
// intermediate map, slices or Change structs. It is the sink-side half
// of the pipeline's recycling contract: everything it reads from the
// result is consumed before Write returns, and the only steady-state
// allocation is the caller's buffer growth, which amortizes to zero.
//
// The byte equivalence is pinned by this package's quick-check suite
// (encode_test.go) and, transitively, by the jobs artifact parity
// tests — a drift here would break the "async output equals sync
// output" contract loudly.
//
// An encoder is bound to one schema. Every attribute name is quoted
// once, when it is built, and Append keeps no state, so one encoder
// may serve concurrent calls. Each job run and each HTTP request
// builds its own, at a few small allocations.
type ResultEncoder struct {
	keys   *jsonenc.MapKeys // the "tuple" object's keys
	quoted []string         // quoted[pos] is attribute pos's name as a JSON string
}

// NewResultEncoder builds an encoder for results under sch.
func NewResultEncoder(sch *schema.Schema) *ResultEncoder {
	names := sch.AttrNames()
	quoted := make([]string, len(names))
	for pos, n := range names {
		quoted[pos] = string(jsonenc.AppendString(nil, n))
	}
	return &ResultEncoder{keys: jsonenc.NewMapKeys(names), quoted: quoted}
}

// Append appends the record for r (no trailing newline) and returns
// the extended buffer.
func (e *ResultEncoder) Append(dst []byte, r *pipeline.Result) []byte {
	// "tuple": every attribute, in sorted-key order (the map shape).
	dst = append(dst, `{"tuple":`...)
	dst = jsonenc.AppendStringMap(dst, e.keys, r.Fixed.Vals)
	// "validated": names in schema order (AttrSet.Names), always
	// present — [] when empty, exactly like the non-nil empty slice
	// NewTupleResult builds.
	dst = append(dst, `,"validated":[`...)
	first := true
	for pos, name := range e.quoted {
		if !r.Chase.Validated.Has(pos) {
			continue
		}
		if !first {
			dst = append(dst, ',')
		}
		first = false
		dst = append(dst, name...)
	}
	dst = append(dst, `],"done":`...)
	dst = jsonenc.AppendBool(dst, r.Chase.AllValidated())
	// "conflicts" and "rewrites" are omitempty: absent unless non-empty.
	if len(r.Chase.Conflicts) > 0 {
		dst = append(dst, `,"conflicts":[`...)
		for i := range r.Chase.Conflicts {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = jsonenc.AppendString(dst, r.Chase.Conflicts[i].Error())
		}
		dst = append(dst, ']')
	}
	wrote := false
	for i := range r.Chase.Changes {
		c := &r.Chase.Changes[i]
		if !c.IsRewrite() {
			continue
		}
		if !wrote {
			dst = append(dst, `,"rewrites":[`...)
		} else {
			dst = append(dst, ',')
		}
		wrote = true
		dst = e.appendChange(dst, c)
	}
	if wrote {
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

// appendChange renders one Change object (the jobs.Change wire twin).
func (e *ResultEncoder) appendChange(dst []byte, c *core.Change) []byte {
	dst = append(dst, `{"attr":`...)
	dst = jsonenc.AppendString(dst, c.Attr)
	dst = append(dst, `,"old":`...)
	dst = jsonenc.AppendString(dst, string(c.Old))
	dst = append(dst, `,"new":`...)
	dst = jsonenc.AppendString(dst, string(c.New))
	dst = append(dst, `,"source":`...)
	dst = jsonenc.AppendString(dst, c.Source.String())
	if c.RuleID != "" {
		dst = append(dst, `,"rule_id":`...)
		dst = jsonenc.AppendString(dst, c.RuleID)
	}
	if c.MasterID != 0 {
		dst = append(dst, `,"master_id":`...)
		dst = strconv.AppendInt(dst, c.MasterID, 10)
	}
	return append(dst, '}')
}
