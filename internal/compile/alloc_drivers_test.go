package compile

// alloc_drivers_test.go backs the generated TestWeakvetAllocPins (see
// zz_generated_weakvet_alloc_test.go): one driver per //weakvet:noalloc
// function, keyed by receiver-qualified name. Each driver does its setup
// once and returns the hot closure that testing.AllocsPerRun measures.

import "weakmodels/internal/logic"

// weakvetSink keeps slotOf's result live without allocating.
var weakvetSink int

var weakvetAllocDrivers = map[string]func() func(){
	"(*compiled).slotOf": func() func() {
		c, err := newCompiled(logic.MustParse("<*,2>=2 (q1 | <*,1> q2) & <*,3> q3"), 3)
		if err != nil {
			panic(err)
		}
		vals := c.initVals(2)
		msgs := []string{c.encodeRestriction(vals, 1), c.encodeRestriction(vals, 2), "t(2,t(0,7))"}
		return func() {
			for _, m := range msgs {
				weakvetSink += c.slotOf(m)
			}
		}
	},
}
