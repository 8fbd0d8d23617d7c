// Fixture for the obsguard check's scope: the unguarded emissions of
// ../wpu/hot.go under a path outside the hot-path packages, where the check
// does not apply.
package other

type sink struct{}

func (t *sink) Emit(e int)      {}
func (t *sink) AddSample(s int) {}

type unit struct {
	trace *sink
}

func (u *unit) unguarded() {
	u.trace.Emit(1)
	u.trace.AddSample(2)
}
