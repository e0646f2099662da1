package cli

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"splash2/internal/core"
)

func TestParseProcList(t *testing.T) {
	got, err := ParseProcList(" 8, 1,2 ,8,4")
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{1, 2, 4, 8}; !reflect.DeepEqual(got, want) {
		t.Errorf("ParseProcList = %v, want %v", got, want)
	}
	for _, bad := range []string{"", "8abc", "0", "-2", "1,,2", "1;2"} {
		if _, err := ParseProcList(bad); err == nil {
			t.Errorf("ParseProcList(%q) accepted", bad)
		}
	}
}

func TestExitCode(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{nil, ExitOK},
		{core.ErrFailures, ExitDegraded},
		{fmt.Errorf("3 lost: %w", core.ErrFailures), ExitDegraded},
		{errors.New("disk on fire"), ExitRuntime},
	}
	for _, tc := range cases {
		if got := ExitCode(tc.err); got != tc.want {
			t.Errorf("ExitCode(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}

func TestParseDelegates(t *testing.T) {
	if s, err := ParseScale("paper"); err != nil || s != core.PaperScale {
		t.Errorf("ParseScale(paper) = %v, %v", s, err)
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Error("ParseScale accepted huge")
	}
}
