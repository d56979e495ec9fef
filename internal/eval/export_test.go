package eval

// Test-only views for the external eval_test package, whose trees come
// from the synthesis flow (which imports this package).
var (
	RefineryTree = refineryTree
	CheckTrials  = checkTrials
)
