// Command hcappsim regenerates the paper's tables and figures from the
// simulated target system, and hosts the tools built on the same
// evaluator as subcommands.
//
// Usage:
//
//	hcappsim -experiment fig4            # one experiment
//	hcappsim -experiment all             # everything (slow)
//	hcappsim -experiment table1,table2   # comma-separated list
//	hcappsim -dur 16 -seed 42            # run-length and seed control
//	hcappsim -experiment scaling -counts 1,2,4,8 -tree
//	hcappsim trace -fig 1 > fig1.csv     # Fig. 1/2 and controlled-run CSV traces
//	hcappsim tune -mode target           # calibration sweeps (§3.1)
//	hcappsim report > EXPERIMENTS.md     # paper-vs-measured report
//
// Experiments: table1 table2 table3 fig1 fig2 fig4 fig5 fig6 fig7 fig8
// fig9 fig10, plus the extensions and ablations: scaling, policies,
// centralized, locals, clocking, thermal, adversarial, faults,
// fault-sweep, energy.
//
// Every flag value is validated before anything simulates; a bad value,
// an unknown command or a flag the command does not honour exits 2.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"

	"hcapp/internal/buildinfo"
	"hcapp/internal/cluster"
	"hcapp/internal/config"
	"hcapp/internal/experiment"
	"hcapp/internal/sim"
)

// command is one hcappsim mode: the flags it honours and what it runs.
type command struct {
	name string // "" is the default experiment mode
	// flags lists the honoured flags; any other flag is a usage error.
	flags []string
	dur   float64 // default -dur, milliseconds
	run   func(*options) error
}

var commands = []command{
	{"", []string{"experiment", "dur", "seed", "combo", "workers", "coordinator", "priority", "tenant",
		"counts", "tree", "msg-ns", "version"}, 16, runExperiments},
	{"trace", []string{"fig", "combo", "dur", "sample", "scheme", "version"}, 16, runTrace},
	{"tune", []string{"mode", "dur", "version"}, 12, runTune},
	{"report", []string{"dur", "seed", "workers", "version"}, 16, runReport},
}

// schemeNames lists the -scheme values config.SchemeByKind accepts.
const schemeNames = "fixed-voltage | hcapp | rapl-like | sw-like"

// options holds every flag's value. Fields a command does not honour
// keep their zero value.
type options struct {
	experiment  string
	dur         float64
	seed        int64
	combo       string
	workers     int
	coordinator string
	priority    string
	tenant      string
	chiplets    []int // -counts
	tree        bool
	msgNS       int64
	fig         int
	sample      float64
	scheme      string
	mode        string
	version     bool

	// Parsed from the flags above by check.
	ids       []string
	comboSpec experiment.Combo
	fleet     *cluster.Client
}

// define registers the command's flags on fs, each flag written once
// for every command that honours it.
func define(fs *flag.FlagSet, o *options, c *command) {
	for _, name := range c.flags {
		switch name {
		case "experiment":
			fs.StringVar(&o.experiment, name, "all", "experiment id(s), comma-separated, or 'all'")
		case "dur":
			fs.Float64Var(&o.dur, name, c.dur, "run length in milliseconds")
		case "seed":
			fs.Int64Var(&o.seed, name, 42, "workload generation seed")
		case "combo":
			fs.StringVar(&o.combo, name, "Burst-Burst", "workload combination")
		case "workers":
			fs.IntVar(&o.workers, name, runtime.NumCPU(), "parallel simulation workers (output is identical at any width)")
		case "coordinator":
			fs.StringVar(&o.coordinator, name, "", "offload simulations to the fleet coordinator at this URL (rendered output is identical)")
		case "priority":
			fs.StringVar(&o.priority, name, cluster.PriorityBatch, "fleet priority class with -coordinator: interactive or batch")
		case "tenant":
			fs.StringVar(&o.tenant, name, "", "fleet tenant id for rate limiting with -coordinator")
		case "counts":
			o.chiplets = experiment.DefaultScalingConfig().ChipletCounts
			fs.Var((*counts)(&o.chiplets), name, "scaling: comma-separated chiplet-triple counts")
		case "tree":
			fs.BoolVar(&o.tree, name, false, "scaling: use an aggregation tree instead of a shared bus")
		case "msg-ns":
			fs.Int64Var(&o.msgNS, name, int64(experiment.DefaultScalingConfig().Network.MsgSerialization), "scaling: per-message serialization on the collection network, ns")
		case "fig":
			fs.IntVar(&o.fig, name, 1, "1: static trace; 2: windowed views; 3: controlled-run power+voltage")
		case "sample":
			fs.Float64Var(&o.sample, name, 20, "sample spacing, microseconds")
		case "scheme":
			fs.StringVar(&o.scheme, name, string(config.FixedVoltage), schemeNames)
		case "mode":
			fs.StringVar(&o.mode, name, "probe", strings.Join(tuneModeNames, " | "))
		case "version":
			fs.BoolVar(&o.version, name, false, "print version and exit")
		default:
			panic("hcappsim: no definition for flag -" + name)
		}
	}
}

// check validates every value the command reads, so a bad flag fails
// before anything simulates. set holds the flags given explicitly.
func check(o *options, c *command, set map[string]bool) error {
	for _, name := range c.flags {
		var err error
		switch name {
		case "experiment":
			o.ids, err = parseExperimentIDs(o.experiment)
		case "dur":
			err = positive(name, o.dur)
		case "sample":
			err = positive(name, o.sample)
		case "combo":
			o.comboSpec, err = experiment.ComboByName(o.combo)
		case "workers":
			err = validateWorkers(o.workers)
		case "coordinator":
			if o.coordinator != "" {
				o.fleet, err = cluster.NewClient(o.coordinator)
			} else if set["priority"] || set["tenant"] {
				err = errors.New("-priority and -tenant need -coordinator")
			}
		case "priority":
			if !cluster.ValidPriority(o.priority) {
				err = fmt.Errorf("unknown -priority %q (valid: %s %s)", o.priority, cluster.PriorityInteractive, cluster.PriorityBatch)
			}
		case "counts": // after "experiment", which sets o.ids
			if !slices.Contains(o.ids, "scaling") && (set["counts"] || set["tree"] || set["msg-ns"]) {
				err = errors.New("-counts, -tree and -msg-ns need the scaling experiment")
			}
		case "msg-ns":
			if o.msgNS <= 0 {
				err = fmt.Errorf("-msg-ns must be > 0, got %d", o.msgNS)
			}
		case "fig":
			widest := fig2Windows[len(fig2Windows)-1]
			if o.fig < 1 || o.fig > 3 {
				err = fmt.Errorf("unknown -fig %d (valid: 1 2 3)", o.fig)
			} else if minMs := float64(widest) / float64(sim.Millisecond); o.fig == 2 && o.dur < minMs {
				err = fmt.Errorf("-fig 2 needs -dur >= %g ms: its widest window is %s, and a shorter trace completes no row", minMs, sim.FormatTime(widest))
			}
		case "scheme":
			if _, e := config.SchemeByKind(config.SchemeKind(o.scheme)); e != nil {
				err = fmt.Errorf("unknown -scheme %q (valid: %s)", o.scheme, schemeNames)
			}
		case "mode":
			if _, ok := tuneModes[o.mode]; !ok {
				err = fmt.Errorf("unknown -mode %q (valid: %s)", o.mode, strings.Join(tuneModeNames, " | "))
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// parse selects the command named by args[0] — no arguments or a
// leading flag select the default experiment mode — then parses and
// checks its flags. Every error it returns is a usage error whose
// message and usage text are already written to out.
func parse(args []string, out io.Writer) (*command, *options, error) {
	c := &commands[0]
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		for i := range commands {
			if commands[i].name == args[0] {
				c = &commands[i]
			}
		}
		if c.name != args[0] {
			err := fmt.Errorf("unknown command %q (valid: %s, or flags for the default experiment mode)",
				args[0], subcommands())
			fmt.Fprintf(out, "hcappsim: %v\n", err)
			usage(out, c, nil)
			return nil, nil, err
		}
		args = args[1:]
	}
	o := &options{}
	fs := flag.NewFlagSet(strings.TrimSpace("hcappsim "+c.name), flag.ContinueOnError)
	fs.SetOutput(out)
	fs.Usage = func() { usage(out, c, fs) }
	define(fs, o, c)
	if err := fs.Parse(args); err != nil {
		return nil, nil, err
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	err := check(o, c, set)
	if err == nil && fs.NArg() > 0 {
		err = fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if err != nil {
		fmt.Fprintf(out, "%s: %v\n", fs.Name(), err)
		fs.Usage()
		return nil, nil, err
	}
	return c, o, nil
}

// usage prints a command's synopsis and flags; the default mode's also
// names the subcommands.
func usage(out io.Writer, c *command, fs *flag.FlagSet) {
	fmt.Fprintf(out, "usage: %s [flags]\n", strings.TrimSpace("hcappsim "+c.name))
	if c.name == "" {
		fmt.Fprintf(out, "       hcappsim %s [flags]\n", strings.ReplaceAll(subcommands(), " ", "|"))
	}
	if fs != nil {
		fs.PrintDefaults()
	}
}

// subcommands lists the subcommand names, space-separated.
func subcommands() string {
	var names []string
	for _, c := range commands[1:] {
		names = append(names, c.name)
	}
	return strings.Join(names, " ")
}

func main() {
	c, o, err := parse(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		os.Exit(2)
	}
	if o.version {
		buildinfo.Print(os.Stdout, "hcappsim")
		return
	}
	if err := c.run(o); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", strings.TrimSpace("hcappsim "+c.name), err)
		os.Exit(1)
	}
}

// positive rejects a zero, negative or non-finite flag value.
func positive(name string, v float64) error {
	if !(v > 0) || math.IsInf(v, 0) {
		return fmt.Errorf("-%s must be a positive number, got %g", name, v)
	}
	return nil
}

// validateWorkers rejects non-positive pool sizes before anything runs
// (a zero-size pool would otherwise deadlock the scheduler).
func validateWorkers(workers int) error {
	if workers < 1 {
		return fmt.Errorf("-workers must be >= 1, got %d", workers)
	}
	return nil
}

// counts is the -counts flag: comma-separated positive integers.
type counts []int

func (c *counts) String() string {
	parts := make([]string, len(*c))
	for i, n := range *c {
		parts[i] = strconv.Itoa(n)
	}
	return strings.Join(parts, ",")
}

func (c *counts) Set(s string) error {
	*c = nil
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return fmt.Errorf("bad count %q (want positive integers)", part)
		}
		*c = append(*c, n)
	}
	return nil
}

// durOf converts a validated -dur value to simulated time.
func durOf(ms float64) sim.Time { return sim.Time(ms * float64(sim.Millisecond)) }
