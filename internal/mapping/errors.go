package mapping

import "errors"

// Sentinel errors wrapped (via %w) by the mapping strategies, so callers can
// branch with errors.Is instead of matching message text.
var (
	// ErrBadInput marks a malformed Input: missing network, invalid k,
	// mismatched summary or assignment sizes, unknown approach names.
	ErrBadInput = errors.New("mapping: invalid input")
	// ErrInfeasible marks a well-formed problem with no admissible
	// solution: more engines than placeable nodes, no surviving engines to
	// remap onto.
	ErrInfeasible = errors.New("mapping: infeasible problem")
)
