"""The package's layers as the benchmark traces them, and the figures their spans give.

The layers are the package modules.  The traced run wraps each module's
public functions listed in TRACED, from outside the package: every module
attribute bound to one of those functions is replaced, so calls through
`from .evolve import propagate_driven` style imports are caught too.
"""

import os
import sys

from spans import busy_time, children_of, self_times

TRACED = {
    "spin_core": ("coherent_spin_state",),
    "hamiltonians": ("build_hamiltonian",),
    "evolve": ("propagate_static", "propagate_driven", "driven_state_at"),
    "squeezing": ("xi_squared", "squeezing_curve", "optimal_squeezing"),
    "experiments": ("run_time_curve", "run_n_scaling", "run_ratio_scan", "emit"),
    "cli": ("main",),
}

SWEEPS = ("experiments.run_time_curve", "experiments.run_n_scaling",
          "experiments.run_ratio_scan")
PROPAGATORS = ("evolve.propagate_driven", "evolve.propagate_static")
REFINER = "squeezing.optimal_squeezing"

# Attributes recorded per call; the package calls these positionally.
ANNOTATE = {
    "evolve.propagate_driven": lambda result, args: {"chi_time": float(result.times[-1])},
    "evolve.driven_state_at": lambda result, args: {"chi_time": float(args[3] - args[2])},
    "experiments.emit": lambda result, args: {"bytes": os.path.getsize(args[2])},
}

# (name, unit, better) of every per-layer figure, in report order.
# layer_metrics gives all but the last four, which run.py measures around
# the traced pass.
PER_LAYER = (
    ("evolve.driven_state_at.calls", "count", "lower"),
    ("evolve.driven_state_at.self_s", "s", "lower"),
    ("evolve.propagate_driven.calls", "count", "lower"),
    ("evolve.propagate_driven.self_s", "s", "lower"),
    ("evolve.driven_s_per_chi_time", "s/chi_t", "lower"),
    ("evolve.propagate_static.calls", "count", "lower"),
    ("evolve.propagate_static.self_s", "s", "lower"),
    ("evolve.propagate_static.traj_calls", "count", "lower"),
    ("evolve.propagate_static.traj_self_s", "s", "lower"),
    ("evolve.propagate_static.refine_calls", "count", "lower"),
    ("evolve.propagate_static.refine_self_s", "s", "lower"),
    ("squeezing.xi_squared.calls", "count", "lower"),
    ("squeezing.xi_squared.self_s", "s", "lower"),
    ("squeezing.xi_squared.us_per_call", "us", "lower"),
    ("squeezing.squeezing_curve.self_s", "s", "lower"),
    ("squeezing.optimal_squeezing.calls", "count", "lower"),
    ("squeezing.optimal_squeezing.self_s", "s", "lower"),
    ("squeezing.refine_evals", "count", "lower"),
    ("squeezing.refine_share", "ratio", "lower"),
    ("hamiltonians.build_hamiltonian.calls", "count", "lower"),
    ("hamiltonians.build_hamiltonian.self_s", "s", "lower"),
    ("spin_core.coherent_spin_state.calls", "count", "lower"),
    ("spin_core.coherent_spin_state.self_s", "s", "lower"),
    ("experiments.sweep.self_s", "s", "lower"),
    ("experiments.pool_parallelism", "threads", "higher"),
    ("experiments.emit.self_s", "s", "lower"),
    ("experiments.emit.bytes", "bytes", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("squeezing.xi2_max_dev", "xi2", "lower"),
    ("evolve.step_halving_delta", "xi2", "lower"),
    ("experiments.pool_speedup", "ratio", "higher"),
)


def instrument(tracer):
    """Replace every package binding of a TRACED function by a traced wrapper."""
    modules = [m for name, m in sys.modules.items()
               if name == "spinsqueeze" or name.startswith("spinsqueeze.")]
    wrappers = {}
    for layer, names in TRACED.items():
        module = sys.modules[f"spinsqueeze.{layer}"]
        for fn_name in names:
            span_name = f"{layer}.{fn_name}"
            original = getattr(module, fn_name)
            wrappers[id(original)] = (original, tracer.wrap(
                span_name, original, ANNOTATE.get(span_name)))
    for module in modules:
        for attr, value in list(vars(module).items()):
            original, wrapper = wrappers.get(id(value), (None, None))
            if original is value:
                setattr(module, attr, wrapper)


def layer_metrics(spans):
    """Per-layer figures of one traced pass that its spans alone give."""
    own = self_times(spans)
    kids = children_of(spans)
    by_id = {s.id: s for s in spans}

    def named(name):
        return [s for s in spans if s.name == name]

    def self_sum(group):
        return sum(own[s.id] for s in group)

    def under_refiner(s):
        return s.parent in by_id and by_id[s.parent].name == REFINER

    m = {}
    for name in ("evolve.driven_state_at", "evolve.propagate_driven",
                 "evolve.propagate_static", "squeezing.xi_squared",
                 "squeezing.optimal_squeezing", "hamiltonians.build_hamiltonian",
                 "spin_core.coherent_spin_state"):
        m[f"{name}.calls"] = len(named(name))
        m[f"{name}.self_s"] = self_sum(named(name))

    driven = named("evolve.propagate_driven") + named("evolve.driven_state_at")
    chi_time = sum(s.attrs["chi_time"] for s in driven)
    m["evolve.driven_s_per_chi_time"] = (
        sum(s.duration for s in driven) / chi_time if chi_time > 0 else 0.0)

    static = named("evolve.propagate_static")
    refine_static = [s for s in static if under_refiner(s)]
    traj_static = [s for s in static if not under_refiner(s)]
    m["evolve.propagate_static.traj_calls"] = len(traj_static)
    m["evolve.propagate_static.traj_self_s"] = self_sum(traj_static)
    m["evolve.propagate_static.refine_calls"] = len(refine_static)
    m["evolve.propagate_static.refine_self_s"] = self_sum(refine_static)

    xi = named("squeezing.xi_squared")
    m["squeezing.xi_squared.us_per_call"] = (
        1e6 * m["squeezing.xi_squared.self_s"] / len(xi) if xi else 0.0)
    m["squeezing.squeezing_curve.self_s"] = self_sum(named("squeezing.squeezing_curve"))

    # refinement = the optimum search minus its initial pass over the samples
    optima = named(REFINER)
    refine_s = sum(o.duration - sum(c.duration for c in kids.get(o.id, ())
                                    if c.name == "squeezing.squeezing_curve")
                   for o in optima)
    traj_s = sum(s.duration for s in spans
                 if s.name in PROPAGATORS and not under_refiner(s))
    m["squeezing.refine_evals"] = (
        sum(1 for s in xi if under_refiner(s)) / len(optima) if optima else 0.0)
    m["squeezing.refine_share"] = refine_s / traj_s if traj_s > 0 else 0.0

    sweeps = [s for s in spans if s.name in SWEEPS]
    m["experiments.sweep.self_s"] = self_sum(sweeps)
    sweep_wall = sum(s.duration for s in sweeps)
    m["experiments.pool_parallelism"] = (
        sum(busy_time(s, kids.get(s.id, ())) for s in sweeps) / sweep_wall
        if sweep_wall > 0 else 0.0)

    emits = named("experiments.emit")
    m["experiments.emit.self_s"] = self_sum(emits)
    m["experiments.emit.bytes"] = sum(s.attrs["bytes"] for s in emits)
    mains = named("cli.main")
    m["cli.main.self_s"] = self_sum(mains)
    m["trace.wall_s"] = sum(s.duration for s in mains)
    return m


def self_shares(spans):
    """{span name: its share of all self time, over all threads}, largest first."""
    own = self_times(spans)
    total = sum(own.values()) or 1.0
    shares = {}
    for s in spans:
        shares[s.name] = shares.get(s.name, 0.0) + own[s.id] / total
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))
