//go:build hcapp_fixedstep

package sched

// A binary built with -tags hcapp_fixedstep never strides: CI diffs its
// output against the default build's to hold striding to bitwise
// identity over whole experiments.
func init() { fixedStep = true }
