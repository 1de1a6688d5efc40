package main

import (
	"errors"
	"strings"
	"testing"
)

// TestCheckFailsWithoutComparableBaseline: fresh entries measured at a
// width the baseline never recorded gate nothing, and check must say
// so, naming the width, instead of passing.
func TestCheckFailsWithoutComparableBaseline(t *testing.T) {
	baseline := []Entry{
		{Name: "SingleCell", OpsPerSec: 1000, GOMAXPROCS: 1},
		{Name: "Fig62Sweep", OpsPerSec: 10, GOMAXPROCS: 1},
	}
	fresh := []Entry{
		{Name: "SingleCell", OpsPerSec: 1000, GOMAXPROCS: 2},
		{Name: "Fig62Sweep", OpsPerSec: 10, GOMAXPROCS: 2},
	}
	err := check(fresh, baseline, 0.20, 0.25)
	if !errors.Is(err, errNoBaseline) {
		t.Fatalf("check = %v, want errNoBaseline", err)
	}
	if !strings.Contains(err.Error(), "gomaxprocs=2") {
		t.Fatalf("error %q does not name the width", err)
	}

	// One comparable entry is enough to gate; the rest skip.
	fresh[0].GOMAXPROCS = 1
	if err := check(fresh, baseline, 0.20, 0.25); err != nil {
		t.Fatalf("check with one comparable entry = %v, want nil", err)
	}

	// A comparable entry below the floor still fails as a regression.
	fresh[0].OpsPerSec = 500
	if err := check(fresh, baseline, 0.20, 0.25); err == nil || errors.Is(err, errNoBaseline) {
		t.Fatalf("check of a 2x slowdown = %v, want a regression", err)
	}
}
