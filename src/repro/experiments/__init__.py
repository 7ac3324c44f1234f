"""Experiment harnesses regenerating the paper's tables and figures.

Every harness is a registered :mod:`repro.experiments.framework` spec
— a declarative (parameter grid, per-cell task, aggregator, renderer)
bundle executed by one shared grid runner with persistent JSONL
checkpoints, ``--shard i/n`` splitting, process-pool parallelism and
exact resume.  The classic module-level functions remain as thin
wrappers.

* :mod:`repro.experiments.table1` — Table I (overhead + accuracy).
* :mod:`repro.experiments.figure4` — Figure 4 (TVD distributions).
* :mod:`repro.experiments.attack_complexity` — Eq. 1 comparison and
  the concrete brute-force collusion attack.
* :mod:`repro.experiments.attack_bruteforce` — the executed collusion
  attack: real split pairs searched end to end by the registered
  adversary models of :mod:`repro.attacks`.
* :mod:`repro.experiments.ablation_insertion` — insertion-strategy
  ablation (empty-slot vs block prepend).
* :mod:`repro.experiments.sweep_gate_limit` — obfuscation strength vs
  insertion budget.

Importing this package registers all built-in specs; use
``repro experiment list`` (or :func:`list_specs`) to enumerate them.
"""

from .ablation_insertion import render_ablation, run_ablation
from .sweep_gate_limit import render_sweep, run_gate_limit_sweep
from .attack_bruteforce import (
    AttackRow,
    render_attack_bruteforce,
    run_attack_cell,
)
from .attack_complexity import (
    demo_bruteforce_attack,
    generate_complexity_table,
    render_complexity_table,
)
from .figure4 import generate_figure4, render_figure4
from .framework import (
    Cell,
    ExperimentSpec,
    ResultStore,
    RunReport,
    config_hash,
    get_spec,
    list_specs,
    register,
    run_experiment,
)
from .table1 import AggregateResult, generate_table1, render_table1

__all__ = [
    "AggregateResult",
    "generate_table1",
    "render_table1",
    "generate_figure4",
    "render_figure4",
    "generate_complexity_table",
    "render_complexity_table",
    "demo_bruteforce_attack",
    "AttackRow",
    "render_attack_bruteforce",
    "run_attack_cell",
    "run_ablation",
    "render_ablation",
    "run_gate_limit_sweep",
    "render_sweep",
    # framework
    "Cell",
    "ExperimentSpec",
    "ResultStore",
    "RunReport",
    "config_hash",
    "get_spec",
    "list_specs",
    "register",
    "run_experiment",
]
