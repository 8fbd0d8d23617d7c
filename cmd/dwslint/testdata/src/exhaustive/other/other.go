// Fixture for the exhaustiveswitch check's scope: partial switches over an
// iota enum and a label array that are not the guarded schema enums, so the
// check does not apply.
package other

type Phase uint8

const (
	PhaseFetch Phase = iota
	PhaseIssue
	PhaseRetire
)

var PhaseLabels = [3]string{"fetch", "issue", "retire"}

func partialEnum(p Phase) int {
	switch p {
	case PhaseFetch:
		return 1
	}
	return 0
}

func partialLabel(s string) int {
	switch s {
	case "fetch":
		return 1
	}
	return 0
}

var _ = [...]any{partialEnum, partialLabel, PhaseIssue, PhaseRetire, PhaseLabels}
