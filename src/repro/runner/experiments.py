"""The paper's four evaluation experiments plus Table 1 (Sec 5.2–5.6).

Every experiment runs in two modes:

- ``"analytical"`` — the closed-form cost models of
  :mod:`repro.core.timing` (Eq 6 and per-baseline equivalents);
- ``"simulated"``  — schedules actually routed, wavelength-assigned and
  priced on the substrates (:mod:`repro.optical.network`,
  :mod:`repro.electrical.network`). The electrical side of Fig 7 is always
  simulated (its contention has no closed form).

The two modes agree to float precision for the full-vector algorithms and
within the profile chunk-rounding for the ring-based ones — asserted in the
test suite, so "analytical" is a trustworthy fast path for the full
paper-scale sweeps.
"""

from __future__ import annotations

import functools

from repro.backend import registry
from repro.backend.base import Backend
from repro.collectives.registry import build_schedule
from repro.core.wavelengths import optimal_group_size
from repro.dnn.workload import PAPER_WORKLOADS, DnnWorkload
from repro.electrical.config import ElectricalSystemConfig
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.optical.config import OpticalSystemConfig
from repro.runner.report import ExperimentResult
from repro.runner.sweep import sweep

MODES = ("analytical", "simulated")

# Paper defaults.
FIG4_GROUP_SIZES = (17, 33, 65, 129)
FIG5_WAVELENGTHS = (4, 16, 64, 256)
FIG6_NODES = (1024, 2048, 3072, 4096)
FIG7_NODES = (128, 256, 512, 1024)
HRING_M = 5
DEFAULT_WAVELENGTHS = 64


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


# Backend instances are cached per configuration so repeated experiment
# calls (and their internal step-pattern caches) are reused across sweeps.
_BACKENDS: dict[tuple, Backend] = {}


def _resolve_backend(mode: str, backend: str | None) -> str:
    """The effective backend name for one experiment cell.

    An explicit ``backend`` wins; otherwise ``mode`` keeps its historical
    meaning — ``"analytical"`` prices with the closed forms, ``"simulated"``
    with the optical ring executor.
    """
    if backend is not None:
        if backend not in registry.available():
            raise ValueError(
                f"unknown backend {backend!r}; available: {registry.available()}"
            )
        return backend
    return "analytic" if mode == "analytical" else "optical"


def build_backend(
    name: str, n: int, w: int, interpretation: str,
    t_tune: float = 0.0, overlap: bool = True,
    metrics: MetricsRegistry = NULL_METRICS,
) -> tuple[Backend, OpticalSystemConfig | ElectricalSystemConfig]:
    """A new backend for one cell, plus the system config it was built on.

    The one construction path: :func:`get_backend` caches its result per
    configuration, and ``wrht-repro obs`` calls it directly with its own
    ``metrics`` registry so the metrics cover exactly one run.
    ``t_tune``/``overlap`` configure the MRR reconfiguration model
    (:mod:`repro.optical.reconfig`); the defaults leave it disabled, so
    every historical cell stays bit-identical.
    """
    if name == "optical":
        config = OpticalSystemConfig(
            n_nodes=n, n_wavelengths=w, interpretation=interpretation,
            t_tune=t_tune,
        )
        return registry.create(
            "optical", config=config, overlap=overlap, metrics=metrics
        ), config
    if name == "electrical":
        config = ElectricalSystemConfig(n_nodes=n, interpretation=interpretation)
        return registry.create(
            "electrical", config=config, metrics=metrics
        ), config
    if name == "analytic":
        from repro.optical.reconfig import ReconfigModel

        config = OpticalSystemConfig(
            n_nodes=n, n_wavelengths=w, interpretation=interpretation
        )
        return registry.create(
            "analytic", model=config.cost_model(), w=w,
            reconfig=ReconfigModel(t_tune=t_tune), overlap=overlap,
            metrics=metrics,
        ), config
    raise ValueError(
        f"the experiment runner cannot construct backend {name!r}; "
        "supported: optical, electrical, analytic"
    )


def get_backend(
    name: str, n: int, w: int, interpretation: str,
    t_tune: float = 0.0, overlap: bool = True,
) -> Backend:
    """A cached :func:`build_backend` instance for one
    ``(backend, N, w, interpretation, t_tune, overlap)``.

    Instances (and the process-wide plan cache behind their ``lower()``)
    are reused across experiment calls; :func:`clear_network_caches` drops
    them.
    """
    key = (name, n, w, interpretation, t_tune, overlap)
    be = _BACKENDS.get(key)
    if be is None:
        be, _ = build_backend(name, n, w, interpretation, t_tune, overlap)
        _BACKENDS[key] = be
    return be


def _build_cell_schedule(algo: str, n: int, w: int, workload: DnnWorkload, *,
                         wrht_m: int | None, hring_m: int):
    """The schedule for one experiment cell (never materialized)."""
    kwargs: dict = {"materialize": False}
    if algo == "WRHT":
        kwargs.update(n_wavelengths=w, m=wrht_m)
    elif algo == "H-Ring":
        kwargs.update(m=hring_m)
    return build_schedule(algo, n, workload.n_params, **kwargs)


def _cell_time(
    backend: str,
    algo: str,
    n: int,
    w: int,
    workload: DnnWorkload,
    interpretation: str,
    wrht_m: int | None = None,
    t_tune: float = 0.0,
    overlap: bool = True,
) -> float:
    """Seconds for one algorithm on the named backend."""
    be = get_backend(backend, n, w, interpretation, t_tune, overlap)
    schedule = _build_cell_schedule(
        algo, n, w, workload, wrht_m=wrht_m, hring_m=HRING_M
    )
    return be.run(schedule, bytes_per_elem=workload.bytes_per_param).total_time


def clear_network_caches() -> None:
    """Drop the per-process backend instances (benchmark hygiene).

    The next experiment call rebuilds its backends from scratch; the
    cross-run plan cache (:mod:`repro.backend.plancache`) is separate and
    unaffected.
    """
    _BACKENDS.clear()


# -- sweep cell functions ---------------------------------------------------
# Module-level so they pickle into ProcessPoolExecutor workers; the run_figN
# entry points bind the figure-constant knobs with functools.partial.


def _fig4_cell(
    workload: DnnWorkload, m: int, mode: str, interpretation: str,
    n_nodes: int, n_wavelengths: int, backend: str | None = None,
    t_tune: float = 0.0, overlap: bool = True,
) -> float:
    """One Fig 4 grid cell: WRHT at group size ``m`` on one workload."""
    return _cell_time(
        _resolve_backend(mode, backend), "WRHT", n_nodes, n_wavelengths,
        workload, interpretation, wrht_m=m, t_tune=t_tune, overlap=overlap,
    )


def _fig5_cell(
    workload: DnnWorkload, algo: str, w: int, mode: str, interpretation: str,
    n_nodes: int, backend: str | None = None,
    t_tune: float = 0.0, overlap: bool = True,
) -> float:
    """One Fig 5 grid cell: ``algo`` under wavelength count ``w``."""
    return _cell_time(
        _resolve_backend(mode, backend), algo, n_nodes, w, workload,
        interpretation, wrht_m=min(optimal_group_size(w), n_nodes),
        t_tune=t_tune, overlap=overlap,
    )


def _fig6_cell(
    workload: DnnWorkload, algo: str, n: int, mode: str, interpretation: str,
    n_wavelengths: int, backend: str | None = None,
    t_tune: float = 0.0, overlap: bool = True,
) -> float:
    """One Fig 6 grid cell: ``algo`` at cluster size ``n``."""
    return _cell_time(
        _resolve_backend(mode, backend), algo, n, n_wavelengths, workload,
        interpretation, t_tune=t_tune, overlap=overlap,
    )


# Fig 7's display names map to base algorithms per substrate.
_FIG7_BASE = {"E-Ring": "Ring", "O-Ring": "Ring", "RD": "RD", "WRHT": "WRHT"}


def _fig7_backend(algo: str, mode: str, backend: str | None) -> str:
    """Fig 7's split: E-Ring/RD on the fat-tree in every mode, unless an
    explicit ``backend`` forces every flavor through one backend."""
    if backend is None and algo in ("E-Ring", "RD"):
        return "electrical"
    return _resolve_backend(mode, backend)


def _fig7_cell(
    workload: DnnWorkload, algo: str, n: int, mode: str, interpretation: str,
    n_wavelengths: int, backend: str | None = None,
    t_tune: float = 0.0, overlap: bool = True,
) -> float:
    """One Fig 7 grid cell: electrical or optical flavor by algorithm.

    An explicit ``backend`` forces every flavor through that backend
    (useful for like-for-like ablations); the default keeps the paper's
    split — E-Ring/RD on the fat-tree, O-Ring/WRHT on the optical ring.
    The tuning tax only applies to the optical flavors: the fat-tree has
    no MRRs, which is exactly the comparison Fig 7 makes.
    """
    return _cell_time(
        _fig7_backend(algo, mode, backend), _FIG7_BASE[algo], n, n_wavelengths,
        workload, interpretation, t_tune=t_tune, overlap=overlap,
    )


def run_table1(
    n_nodes: int = 1024, n_wavelengths: int = DEFAULT_WAVELENGTHS, hring_m: int = HRING_M
) -> dict[str, int]:
    """Table 1: communication step counts at one configuration.

    Also cross-checks each closed form against the steps of an actually
    built schedule (H-Ring's closed form may differ by the wavelength
    serialization term, which the schedule leaves to the executor).
    """
    from repro.core.steps import steps_table

    counts = steps_table(n_nodes, n_wavelengths, hring_m=hring_m)
    built = {
        "Ring": build_schedule("ring", n_nodes, n_nodes, materialize=False).n_steps,
        "BT": build_schedule("bt", n_nodes, n_nodes, materialize=False).n_steps,
        "RD": build_schedule("rd", n_nodes, n_nodes, materialize=False).n_steps,
        "WRHT": build_schedule(
            "wrht", n_nodes, n_nodes, n_wavelengths=n_wavelengths, materialize=False
        ).n_steps,
        "H-Ring": build_schedule(
            "hring", n_nodes, n_nodes, m=hring_m, materialize=False
        ).n_steps,
    }
    for name, closed_form in counts.items():
        if name == "H-Ring":
            continue  # closed form covers the w-serialized variant too
        if built[name] != closed_form:
            raise AssertionError(
                f"{name}: built schedule has {built[name]} steps, "
                f"closed form says {closed_form}"
            )
    return counts


def run_fig4(
    mode: str = "analytical",
    interpretation: str = "calibrated",
    n_nodes: int = 1024,
    n_wavelengths: int = DEFAULT_WAVELENGTHS,
    group_sizes: tuple[int, ...] = FIG4_GROUP_SIZES,
    workloads: tuple[DnnWorkload, ...] = PAPER_WORKLOADS,
    workers: int | None = None,
    backend: str | None = None,
    t_tune: float = 0.0,
    overlap: bool = True,
) -> ExperimentResult:
    """Fig 4: WRHT with different numbers of grouped nodes.

    One WRHT variant per group size (the paper's WRHT_0 … WRHT_3 at
    m = 17/33/65/129), all four workloads, fixed N and w. Normalization
    reference: WRHT at the largest group size, per workload.
    ``workers`` parallelizes the grid over a process pool (see
    :func:`repro.runner.sweep.sweep`); results are identical either way.
    ``t_tune``/``overlap`` enable the MRR reconfiguration model on the
    optical/analytic backends (disabled by default — bit-identical).
    """
    _check_mode(mode)
    result = ExperimentResult(
        name="fig4", mode=mode, interpretation=interpretation,
        x_label="grouped nodes (m)", x_values=list(group_sizes),
        workloads=[wl.name for wl in workloads],
    )
    cell = functools.partial(
        _fig4_cell, mode=mode, interpretation=interpretation,
        n_nodes=n_nodes, n_wavelengths=n_wavelengths, backend=backend,
        t_tune=t_tune, overlap=overlap,
    )
    grid = sweep(cell, {"workload": workloads, "m": group_sizes}, workers=workers)
    for wl in workloads:
        result.series[(wl.name, "WRHT")] = [grid[(wl, m)] for m in group_sizes]
    result.meta["reference"] = ("WRHT", group_sizes[-1])
    return result


def run_fig5(
    mode: str = "analytical",
    interpretation: str = "calibrated",
    n_nodes: int = 1024,
    wavelengths: tuple[int, ...] = FIG5_WAVELENGTHS,
    workloads: tuple[DnnWorkload, ...] = PAPER_WORKLOADS,
    workers: int | None = None,
    backend: str | None = None,
    t_tune: float = 0.0,
    overlap: bool = True,
) -> ExperimentResult:
    """Fig 5: four algorithms under different wavelength counts.

    WRHT's group size follows Lemma 1 (``min(2w+1, N)``); Ring and BT use a
    single wavelength regardless of w (their defining limitation); H-Ring's
    analytical step count reacts to w via the ``⌈m/w⌉`` term.
    ``workers`` parallelizes the grid over a process pool.
    ``t_tune``/``overlap`` enable the MRR reconfiguration model.
    """
    _check_mode(mode)
    result = ExperimentResult(
        name="fig5", mode=mode, interpretation=interpretation,
        x_label="wavelengths", x_values=list(wavelengths),
        workloads=[wl.name for wl in workloads],
    )
    algos = ("Ring", "H-Ring", "BT", "WRHT")
    cell = functools.partial(
        _fig5_cell, mode=mode, interpretation=interpretation, n_nodes=n_nodes,
        backend=backend, t_tune=t_tune, overlap=overlap,
    )
    grid = sweep(
        cell, {"workload": workloads, "algo": algos, "w": wavelengths},
        workers=workers,
    )
    for wl in workloads:
        for algo in algos:
            result.series[(wl.name, algo)] = [
                grid[(wl, algo, w)] for w in wavelengths
            ]
    result.meta["reference"] = ("ResNet50", "WRHT", wavelengths[-1])
    return result


def run_fig6(
    mode: str = "analytical",
    interpretation: str = "calibrated",
    nodes: tuple[int, ...] = FIG6_NODES,
    n_wavelengths: int = DEFAULT_WAVELENGTHS,
    workloads: tuple[DnnWorkload, ...] = PAPER_WORKLOADS,
    workers: int | None = None,
    backend: str | None = None,
    t_tune: float = 0.0,
    overlap: bool = True,
) -> ExperimentResult:
    """Fig 6: four algorithms on the optical system across cluster sizes.

    ``workers`` parallelizes the grid over a process pool.
    ``t_tune``/``overlap`` enable the MRR reconfiguration model.
    """
    _check_mode(mode)
    result = ExperimentResult(
        name="fig6", mode=mode, interpretation=interpretation,
        x_label="nodes", x_values=list(nodes),
        workloads=[wl.name for wl in workloads],
    )
    algos = ("Ring", "H-Ring", "BT", "WRHT")
    cell = functools.partial(
        _fig6_cell, mode=mode, interpretation=interpretation,
        n_wavelengths=n_wavelengths, backend=backend,
        t_tune=t_tune, overlap=overlap,
    )
    grid = sweep(
        cell, {"workload": workloads, "algo": algos, "n": nodes}, workers=workers
    )
    for wl in workloads:
        for algo in algos:
            result.series[(wl.name, algo)] = [grid[(wl, algo, n)] for n in nodes]
    result.meta["reference"] = ("ResNet50", "WRHT", nodes[0])
    return result


def run_fig7(
    mode: str = "analytical",
    interpretation: str = "calibrated",
    nodes: tuple[int, ...] = FIG7_NODES,
    n_wavelengths: int = DEFAULT_WAVELENGTHS,
    workloads: tuple[DnnWorkload, ...] = PAPER_WORKLOADS,
    workers: int | None = None,
    backend: str | None = None,
    t_tune: float = 0.0,
    overlap: bool = True,
) -> ExperimentResult:
    """Fig 7: electrical fat-tree (E-Ring, RD) vs optical ring (O-Ring, WRHT).

    The electrical side is always the fluid simulation; ``mode`` selects how
    the optical side is priced. ``workers`` parallelizes the grid over a
    process pool. ``t_tune``/``overlap`` enable the MRR reconfiguration
    model on the optical flavors (the fat-tree pays no tuning).
    """
    _check_mode(mode)
    result = ExperimentResult(
        name="fig7", mode=mode, interpretation=interpretation,
        x_label="nodes", x_values=list(nodes),
        workloads=[wl.name for wl in workloads],
    )
    algos = ("E-Ring", "RD", "O-Ring", "WRHT")
    cell = functools.partial(
        _fig7_cell, mode=mode, interpretation=interpretation,
        n_wavelengths=n_wavelengths, backend=backend,
        t_tune=t_tune, overlap=overlap,
    )
    grid = sweep(
        cell, {"workload": workloads, "algo": algos, "n": nodes}, workers=workers
    )
    for wl in workloads:
        for algo in algos:
            result.series[(wl.name, algo)] = [grid[(wl, algo, n)] for n in nodes]
    result.meta["reference"] = ("ResNet50", "WRHT", nodes[0])
    return result
