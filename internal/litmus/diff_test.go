package litmus

import "testing"

// TestRefinementBroken pins the SC ⊆ RA rule over every combination
// of complete and cut searches: only an SC-only outcome over a
// complete RA search is a breach, however the SC search ended.
func TestRefinementBroken(t *testing.T) {
	for _, tc := range []struct {
		name         string
		raCut, scCut bool
		scOnly       []string
		want         bool
	}{
		{"RA complete, SC complete, SC-only", false, false, []string{"a=1;"}, true},
		{"RA complete, SC cut, SC-only", false, true, []string{"a=1;"}, true},
		{"RA cut, SC complete, SC-only", true, false, []string{"a=1;"}, false},
		{"RA cut, SC cut, SC-only", true, true, []string{"a=1;"}, false},
		{"RA complete, SC complete, none", false, false, nil, false},
		{"RA complete, SC cut, none", false, true, nil, false},
		{"RA cut, SC complete, none", true, false, nil, false},
		{"RA cut, SC cut, none", true, true, nil, false},
	} {
		c := Comparison{
			RA:     Report{Truncated: tc.raCut},
			SC:     Report{Truncated: tc.scCut},
			SCOnly: tc.scOnly,
		}
		if got := c.RefinementBroken(); got != tc.want {
			t.Errorf("%s: RefinementBroken() = %v, want %v", tc.name, got, tc.want)
		}
	}
}
