// Command lightpath-sim regenerates every table and figure of "A case
// for server-scale photonic connectivity" (HotNets '24) from the
// simulation, one subcommand per artifact.
//
// Usage:
//
//	lightpath-sim <command> [flags]
//
// Commands:
//
//	info      §3 headline prototype numbers (E12)
//	fig3a     MZI reconfiguration time response + fitted latency (E1)
//	fig3b     reticle stitch loss distribution + Gaussian fit (E2)
//	fig4      waveguide density and crossing budget (E3)
//	table1    Slice-1 ReduceScatter alpha-beta costs (E4)
//	table2    Slice-3 two-stage bucket costs (E5)
//	fig5      bandwidth utilization of sub-rack slices (E6)
//	show      ASCII diagrams of the paper's rack scenarios
//	scale     Figure 5a: cubes spliced into larger tori via OCSes
//	topo      generalized Topology interface demo (-topology rail|torus|mesh)
//	rail      rail-scale fabric campaign: millions of flows through the sharded solver
//	fig6a     single-rack electrical replacement infeasibility (E7)
//	fig6b     cross-rack electrical replacement infeasibility (E8)
//	fig7      optical repair of broken rings (E9)
//	repair    repairability sweep over random racks and failures
//	blast     blast radius sweep, electrical vs optical policy (E10)
//	chaos     fault-injected AllReduce: MTTR, goodput and blast radius under recovery
//	soak      multi-day fleet soak: self-healing availability under Poisson faults
//	controller  million-request lightpath-controller load campaign (X14)
//	sweep     AllReduce completion time vs buffer size (E11)
//	alltoall  AllToAll: per-step circuit reprogramming vs DOR routing (§5)
//	scheduler online reconfiguration policies vs offline optimal (§1/§5)
//	moe       dynamic Mixture-of-Experts circuit workload (§5)
//	hostnet   packetized vs circuit-switched host stacks (§1/§5)
//	protocols eager vs rendezvous on warm circuits
//	moesweep  MoE reconfiguration overhead vs payload size (§5)
//	tenants   random multi-tenant rack sweep generalizing Fig 5c
//	ber       receiver BER waterfall curve
//	ablate    the three design ablations (allocation, fiber, simultaneous)
//	all       run everything above in order
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"

	"lightpath/internal/alloc"
	"lightpath/internal/core"
	"lightpath/internal/engine"
	"lightpath/internal/evloop"
	"lightpath/internal/experiments"
	"lightpath/internal/invariant"
	"lightpath/internal/netsim"
	"lightpath/internal/route"
	"lightpath/internal/topo"
	"lightpath/internal/torus"
	"lightpath/internal/unit"
	"lightpath/internal/viz"
	"lightpath/internal/wafer"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "lightpath-sim:", err)
		os.Exit(1)
	}
}

type printer interface{ Write(p []byte) (int, error) }

func run(args []string, out printer) error {
	fs := flag.NewFlagSet("lightpath-sim", flag.ContinueOnError)
	seed := fs.Uint64("seed", 2024, "deterministic seed for all stochastic components")
	elements := fs.Int("n", experiments.DefaultTableBuffer, "collective buffer length in float32 elements")
	samples := fs.Int("samples", 10000, "stitch-loss samples for fig3b")
	trials := fs.Int("trials", 8, "trials for the chaos and soak campaigns")
	csvDir := fs.String("csv", "", "directory to also write each experiment's data series as <command>.csv")
	parallel := fs.Bool("parallel", true, "fan Monte-Carlo campaigns across CPUs (output is identical either way)")
	checkpoint := fs.String("checkpoint", "", "directory for per-trial soak/controller checkpoints (enables crash tolerance)")
	resume := fs.Bool("resume", false, "resume soak/controller trials from their checkpoints instead of starting fresh")
	ckptInterval := fs.Uint64("ckpt-interval", 0, "soak/controller checkpoint cadence in event boundaries (0 = campaign default)")
	killAt := fs.Uint64("kill-at", 0, "stop every soak/controller trial at this event boundary after checkpointing (crash-injection test mode; needs -checkpoint)")
	topology := fs.String("topology", "rail", "fabric for the topo command: rail, torus, or mesh")
	rails := fs.Int("rails", 0, "rail count for the rail campaign (0 = acceptance-scale default)")
	servers := fs.Int("servers", 0, "servers per rail for the rail campaign (0 = acceptance-scale default)")
	waves := fs.Int("waves", 0, "overlaid ring waves for the rail campaign (0 = acceptance-scale default)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if len(args) == 0 {
		fs.Usage()
		return fmt.Errorf("missing command (try: all)")
	}
	cmd := args[0]
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	// Sizes are checked before any experiment runs, so a bad one fails
	// naming its flag rather than deep inside a campaign.
	for _, f := range []struct {
		name   string
		v, min int
	}{{"-n", *elements, 1}, {"-samples", *samples, 1}, {"-rails", *rails, 0}, {"-servers", *servers, 0}, {"-waves", *waves, 0}} {
		if f.v < f.min {
			return fmt.Errorf("%s must be at least %d, got %d", f.name, f.min, f.v)
		}
	}
	if *killAt > 0 && *checkpoint == "" {
		return errors.New("-kill-at needs -checkpoint: a killed trial can only resume from its checkpoint")
	}
	if !*parallel {
		defer engine.SetWorkers(engine.SetWorkers(1))
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer func() { _ = f.Close() }()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "lightpath-sim: memprofile:", err)
				return
			}
			defer func() { _ = f.Close() }()
			runtime.GC() // settle the heap so the profile shows retained allocations
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "lightpath-sim: memprofile:", err)
			}
		}()
	}

	ck := experiments.Checkpointing{
		Dir:             *checkpoint,
		EveryEvents:     *ckptInterval,
		KillAfterEvents: *killAt,
		Resume:          *resume,
	}
	// checkpointed runs a soak or controller campaign under ck; in
	// crash-injection mode the trials checkpointed and halted as
	// requested, and a later -resume run completes them.
	checkpointed := func(name string, campaign func() (fmt.Stringer, error)) (fmt.Stringer, error) {
		if ck.Dir != "" {
			if err := os.MkdirAll(ck.Dir, 0o755); err != nil {
				return nil, fmt.Errorf("%s: checkpoint dir: %w", name, err)
			}
		}
		r, err := campaign()
		if errors.Is(err, evloop.ErrStopped) {
			return text(fmt.Sprintf("%s: trials stopped at event %d, checkpoints in %s\n", name, ck.KillAfterEvents, ck.Dir)), nil
		}
		return r, err
	}

	// Each command returns its result; emit prints it and, with -csv,
	// writes <command>.csv when the result carries a data series.
	commands := map[string]func() (fmt.Stringer, error){
		"info":   func() (fmt.Stringer, error) { return experiments.Info(), nil },
		"fig3a":  func() (fmt.Stringer, error) { return experiments.Fig3a(*seed) },
		"fig3b":  func() (fmt.Stringer, error) { return experiments.Fig3b(*seed, *samples) },
		"fig4":   func() (fmt.Stringer, error) { return experiments.Fig4(), nil },
		"table1": func() (fmt.Stringer, error) { return experiments.Table1(*elements) },
		"table2": func() (fmt.Stringer, error) { return experiments.Table2(*elements) },
		"fig5": func() (fmt.Stringer, error) {
			return experiments.Fig5(experiments.TableBufferBytes(*elements), *seed)
		},
		"fig6a": func() (fmt.Stringer, error) { return experiments.Fig6a() },
		"fig6b": func() (fmt.Stringer, error) { return experiments.Fig6b() },
		"fig7":  func() (fmt.Stringer, error) { return experiments.Fig7(*seed) },
		"blast": func() (fmt.Stringer, error) { return experiments.Blast(), nil },
		"chaos": func() (fmt.Stringer, error) {
			return experiments.Chaos(*seed, *trials, experiments.TableBufferBytes(*elements))
		},
		"soak": func() (fmt.Stringer, error) {
			return checkpointed("soak", func() (fmt.Stringer, error) {
				return experiments.SoakWithOptions(*seed, *trials, ck)
			})
		},
		"controller": func() (fmt.Stringer, error) {
			return checkpointed("controller", func() (fmt.Stringer, error) {
				return experiments.ControllerWithOptions(*seed, experiments.ControllerOptions{Trials: *trials, Checkpointing: ck})
			})
		},
		"sweep": func() (fmt.Stringer, error) {
			return experiments.Sweep(experiments.DefaultSweepBuffers(), *seed)
		},
		"moe":       func() (fmt.Stringer, error) { return runMoE(*seed) },
		"ablate":    func() (fmt.Stringer, error) { return runAblations(*seed) },
		"hostnet":   func() (fmt.Stringer, error) { return experiments.Hostnet(*seed, 400) },
		"tenants":   func() (fmt.Stringer, error) { return experiments.TenantSweep(*seed, 50) },
		"ber":       func() (fmt.Stringer, error) { return experiments.Waterfall(), nil },
		"alltoall":  func() (fmt.Stringer, error) { return experiments.AllToAll(experiments.DefaultAllToAllBuffers()) },
		"repair":    func() (fmt.Stringer, error) { return experiments.Repairability(*seed, 60) },
		"show":      runShow,
		"protocols": func() (fmt.Stringer, error) { return experiments.Protocols(), nil },
		"moesweep":  func() (fmt.Stringer, error) { return experiments.MoE(*seed) },
		"scale": func() (fmt.Stringer, error) {
			return experiments.Scale(experiments.TableBufferBytes(*elements), *seed)
		},
		"topo": func() (fmt.Stringer, error) { return runTopology(*topology) },
		"rail": func() (fmt.Stringer, error) {
			cfg := experiments.DefaultRailFabricConfig()
			if *rails > 0 {
				cfg.Rails = *rails
			}
			if *servers > 0 {
				cfg.Servers = *servers
			}
			if *waves > 0 {
				cfg.Waves = *waves
			}
			return experiments.RailFabric(cfg)
		},
		"scheduler": func() (fmt.Stringer, error) { return experiments.Scheduler(*seed, 24) },
	}
	emit := func(name string) error {
		r, err := commands[name]()
		if err != nil {
			return err
		}
		if _, err := fmt.Fprint(out, r.String()); err != nil {
			return err
		}
		if t, ok := r.(experiments.Tabular); ok && *csvDir != "" {
			return experiments.WriteCSV(filepath.Join(*csvDir, name+".csv"), t)
		}
		return nil
	}

	if cmd == "all" {
		order := []string{"info", "fig3a", "fig3b", "fig4", "ber", "table1", "table2",
			"show", "fig5", "scale", "topo", "rail", "tenants", "fig6a", "fig6b", "fig7", "repair",
			"blast", "chaos", "soak", "controller", "sweep", "alltoall", "scheduler", "moe", "moesweep", "hostnet",
			"protocols", "ablate"}
		for _, name := range order {
			if err := emit(name); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			fmt.Fprintln(out)
		}
		return nil
	}
	if _, ok := commands[cmd]; !ok {
		return fmt.Errorf("unknown command %q", cmd)
	}
	return emit(cmd)
}

// text is a command's already-rendered output.
type text string

func (t text) String() string { return string(t) }

// runTopology demonstrates the generalized Topology interface: build
// the named fabric at demo scale, place a deterministic neighbor-ring
// workload through the link allocator, and solve it with the
// component-sharded max-min solver.
func runTopology(name string) (fmt.Stringer, error) {
	var (
		fabric topo.Topology
		err    error
	)
	switch name {
	case "rail":
		fabric, err = topo.NewRail(4, 16, unit.GBps(40), unit.GBps(100))
	case "torus":
		fabric, err = topo.NewTorusFabric(torus.Shape{4, 4, 4}, unit.GBps(50))
	case "mesh":
		fabric, err = topo.NewMesh(4, wafer.DefaultConfig(), unit.GBps(200))
	default:
		return nil, fmt.Errorf("unknown -topology %q (want rail, torus, or mesh)", name)
	}
	if err != nil {
		return nil, err
	}
	a := route.NewLinkAllocator(fabric)
	const demoWaves = 2
	for w := 0; w < demoWaves; w++ {
		for e := 0; e < fabric.Endpoints(); e++ {
			a.Place(e, (e+1)%fabric.Endpoints(), unit.Bytes(w+1)*unit.MB)
		}
	}
	var sim netsim.Sim[int]
	res, err := sim.Run(a.Flows(), a.Capacities())
	if err != nil {
		return nil, err
	}
	link, load := a.MaxLoad()
	return text(fmt.Sprintf(
		"Topology demo: %s fabric behind the generalized Topology interface\n"+
			"  %d endpoints, %d links; %d neighbor-ring flows placed by the link allocator\n"+
			"  peak link load: %d flows on link %d\n"+
			"  sharded max-min solve: makespan %v\n",
		fabric.Name(), fabric.Endpoints(), fabric.Links(), a.Len(), load, link, res.Makespan)), nil
}

// runShow draws the paper's scenario racks.
func runShow() (fmt.Stringer, error) {
	tor, a, err := alloc.Fig5b()
	if err != nil {
		return nil, err
	}
	sc, err := alloc.Fig6a()
	if err != nil {
		return nil, err
	}
	return text("Figure 5b rack (four tenants, fully allocated):\n" +
		viz.RackLayers(tor, a, nil) +
		"\nFigure 6a rack (failed chip X, spares .):\n" +
		viz.RackLayers(sc.Torus, sc.Alloc, map[int]bool{sc.FailedChip: true})), nil
}

func runMoE(seed uint64) (fmt.Stringer, error) {
	fabric, err := core.New(core.Options{Seed: seed, Audit: invariant.Sampled})
	if err != nil {
		return nil, err
	}
	res, err := fabric.RunMoE(core.DefaultMoEConfig())
	if err != nil {
		return nil, err
	}
	return text(fmt.Sprintf(
		"Mixture-of-Experts dynamic circuits (§5): %d batches\n"+
			"  circuits: %d new, %d reused, %d evicted\n"+
			"  time: %v reconfiguration + %v transfer = %v total\n"+
			"  reconfiguration overhead: %.2f%%\n",
		res.Batches, res.NewCircuits, res.ReusedCircuits, res.Evictions,
		res.ReconfigTime, res.TransferTime, res.Makespan, res.OverheadFraction()*100)), nil
}

func runAblations(seed uint64) (fmt.Stringer, error) {
	a, err := experiments.AblationAllocation(seed, 8)
	if err != nil {
		return nil, err
	}
	f, err := experiments.AblationFiber(seed)
	if err != nil {
		return nil, err
	}
	s, err := experiments.AblationSimultaneous(3 << 12)
	if err != nil {
		return nil, err
	}
	return text(a.String() + f.String() + s.String()), nil
}
