package core

// Pipeline fusion: every run of narrow, stateless, single-input operators
// (map, filter, flatmap, project) on one platform is compiled into one
// single-pass kernel by the engines (see
// internal/platform/driverutil/fuse.go) — it is the only way those kinds
// execute. This file holds the kind predicate both the optimizer and the
// engines use, so cost estimation and execution agree on what fuses.

// FusibleKind reports whether k is a narrow, stateless, single-input
// operator kind eligible for pipeline fusion. Distinct (stateful), MapPart
// (whole-partition), Sample (round-dependent) and all wide kinds are not.
func FusibleKind(k Kind) bool {
	switch k {
	case KindMap, KindFilter, KindFlatMap, KindProject:
		return true
	}
	return false
}
