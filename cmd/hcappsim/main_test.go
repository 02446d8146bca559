package main

import (
	"io"
	"reflect"
	"strings"
	"testing"

	"hcapp/internal/experiment"
)

func TestParseExperimentIDsAll(t *testing.T) {
	ids, err := parseExperimentIDs("all")
	if err != nil {
		t.Fatal(err)
	}
	want := make([]string, 0, len(experimentIDs))
	for _, id := range experimentIDs {
		if !notInAll[id] {
			want = append(want, id)
		}
	}
	if !reflect.DeepEqual(ids, want) {
		t.Fatalf("all = %v, want %v", ids, want)
	}
	for _, id := range ids {
		if notInAll[id] {
			t.Fatalf("%q escaped the notInAll filter", id)
		}
	}
}

func TestParseExperimentIDsNormalizes(t *testing.T) {
	ids, err := parseExperimentIDs(" FIG4 ,fig5,, Table1 ")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"fig4", "fig5", "table1"}; !reflect.DeepEqual(ids, want) {
		t.Fatalf("ids = %v, want %v", ids, want)
	}
}

func TestParseExperimentIDsRejectsUnknown(t *testing.T) {
	// A typo anywhere in the list must fail up front, before any
	// experiment runs, and name every valid id.
	_, err := parseExperimentIDs("table1,fig99,fig4")
	if err == nil {
		t.Fatal("unknown id accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, "fig99") {
		t.Errorf("error does not name the bad id: %s", msg)
	}
	for _, id := range experimentIDs {
		if !strings.Contains(msg, id) {
			t.Errorf("error does not list valid id %q: %s", id, msg)
		}
	}
}

func TestParseExperimentIDsRejectsEmpty(t *testing.T) {
	for _, in := range []string{"", " ", ",,"} {
		if _, err := parseExperimentIDs(in); err == nil {
			t.Errorf("input %q accepted", in)
		}
	}
}

func TestRegistryHasNoDuplicates(t *testing.T) {
	seen := map[string]bool{}
	for _, id := range experimentIDs {
		if seen[id] {
			t.Errorf("duplicate registry id %q", id)
		}
		seen[id] = true
	}
	for id := range notInAll {
		if !seen[id] {
			t.Errorf("notInAll id %q is not in the registry", id)
		}
	}
}

func TestValidateWorkers(t *testing.T) {
	for _, n := range []int{1, 4, 64} {
		if err := validateWorkers(n); err != nil {
			t.Errorf("validateWorkers(%d) = %v, want nil", n, err)
		}
	}
	for _, n := range []int{0, -1, -8} {
		if err := validateWorkers(n); err == nil {
			t.Errorf("validateWorkers(%d) accepted a deadlocking pool size", n)
		}
	}
}

func TestParseDispatch(t *testing.T) {
	// A leading flag, or no arguments at all, selects the default
	// experiment mode; a leading word names a subcommand.
	for _, tc := range []struct {
		args []string
		want string
		dur  float64
	}{
		{nil, "", 16},
		{[]string{"-experiment", "fig4"}, "", 16},
		{[]string{"-version"}, "", 16},
		{[]string{"-experiment", "scaling", "-counts", "1,2", "-tree", "-msg-ns", "80"}, "", 16},
		{[]string{"trace"}, "trace", 16},
		{[]string{"trace", "-fig", "3", "-scheme", "hcapp", "-dur", "1"}, "trace", 1},
		{[]string{"trace", "-fig", "2", "-dur", "10"}, "trace", 10},
		{[]string{"tune"}, "tune", 12},
		{[]string{"tune", "-mode", "pid"}, "tune", 12},
		{[]string{"report", "-dur", "2", "-workers", "1"}, "report", 2},
	} {
		c, o, err := parse(tc.args, io.Discard)
		if err != nil {
			t.Errorf("parse(%q): %v", tc.args, err)
			continue
		}
		if c.name != tc.want || o.dur != tc.dur {
			t.Errorf("parse(%q) = command %q dur %g, want %q dur %g", tc.args, c.name, o.dur, tc.want, tc.dur)
		}
	}
}

func TestParseRejects(t *testing.T) {
	// Every bad value fails in parse, before anything simulates, with a
	// message naming the flag or listing the valid values; main turns
	// that into exit 2.
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-experiment", "fig4", "-dur", "0"}, "-dur must be a positive number"},
		{[]string{"-dur", "-1"}, "-dur must be a positive number"},
		{[]string{"-dur", "NaN"}, "-dur must be a positive number"},
		{[]string{"report", "-dur", "+Inf"}, "-dur must be a positive number"},
		{[]string{"trace", "-sample", "0"}, "-sample must be a positive number"},
		{[]string{"trace", "-sample", "-5"}, "-sample must be a positive number"},
		{[]string{"-experiment", "table1,fig1", "-combo", "bogus"}, `unknown combo "bogus"`},
		{[]string{"trace", "-combo", "bogus"}, `unknown combo "bogus"`},
		{[]string{"-experiment", "scaling", "-counts", "1,x"}, `bad count "x"`},
		{[]string{"-experiment", "scaling", "-counts", "0"}, `bad count "0"`},
		{[]string{"-experiment", "scaling", "-counts", "-2"}, `bad count "-2"`},
		{[]string{"-experiment", "scaling", "-counts", "1,,2"}, `bad count ""`},
		{[]string{"-experiment", "scaling", "-msg-ns", "0"}, "-msg-ns must be > 0"},
		{[]string{"-experiment", "fig4", "-counts", "1,2"}, "need the scaling experiment"},
		{[]string{"-experiment", "fig4", "-tree"}, "need the scaling experiment"},
		{[]string{"-experiment", "bogus"}, `unknown experiment "bogus"`},
		{[]string{"-workers", "0"}, "-workers must be >= 1"},
		{[]string{"-tenant", "a"}, "need -coordinator"},
		{[]string{"-priority", "interactive"}, "need -coordinator"},
		{[]string{"-coordinator", "http://127.0.0.1:1", "-priority", "bogus"}, "valid: interactive batch"},
		{[]string{"-coordinator", "ftp://x"}, "must start with http://"},
		{[]string{"-experiment", "fig4", "extra"}, `unexpected argument "extra"`},
		{[]string{"bogus"}, "valid: trace tune report"},
		{[]string{"tune", "-mode", "bogus"}, "valid: probe | fixsweep | target | pid"},
		{[]string{"trace", "-fig", "4"}, "valid: 1 2 3"},
		{[]string{"trace", "-fig", "2", "-dur", "9.9"}, "-fig 2 needs -dur >= 10 ms"},
		{[]string{"trace", "-fig", "2", "-dur", "1"}, "-fig 2 needs -dur >= 10 ms"},
		{[]string{"trace", "-scheme", "bogus"}, "valid: fixed-voltage | hcapp | rapl-like | sw-like"},
		// A subcommand rejects the flags it cannot honour.
		{[]string{"trace", "-coordinator", "http://127.0.0.1:1"}, "flag provided but not defined: -coordinator"},
		{[]string{"trace", "-seed", "1"}, "flag provided but not defined: -seed"},
		{[]string{"tune", "-workers", "2"}, "flag provided but not defined: -workers"},
		{[]string{"report", "-o", "x.md"}, "flag provided but not defined: -o"},
		{[]string{"report", "-experiment", "fig4"}, "flag provided but not defined: -experiment"},
		{[]string{"-dur", "1", "-sample", "5"}, "flag provided but not defined: -sample"},
	} {
		var out strings.Builder
		_, _, err := parse(tc.args, &out)
		if err == nil {
			t.Errorf("parse(%q) accepted", tc.args)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("parse(%q) = %v, want it to contain %q", tc.args, err, tc.want)
		}
		if !strings.Contains(out.String(), "usage: hcappsim") {
			t.Errorf("parse(%q) printed no usage:\n%s", tc.args, out.String())
		}
	}
}

func TestParseCounts(t *testing.T) {
	// The same slices the standalone sweep built with strconv.Atoi over
	// the trimmed comma-separated parts.
	for in, want := range map[string][]int{
		"1,2,4,8":       {1, 2, 4, 8},
		" 1, 2 ,16 ":    {1, 2, 16},
		"3":             {3},
		"1,2,4,8,16,32": {1, 2, 4, 8, 16, 32},
	} {
		var got counts
		if err := got.Set(in); err != nil || !reflect.DeepEqual([]int(got), want) {
			t.Errorf("-counts %q = %v, %v; want %v", in, got, err, want)
		}
	}
	_, o, err := parse([]string{"-experiment", "scaling"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if want := experiment.DefaultScalingConfig().ChipletCounts; !reflect.DeepEqual(o.chiplets, want) {
		t.Errorf("default -counts = %v, want DefaultScalingConfig's %v", o.chiplets, want)
	}
}
