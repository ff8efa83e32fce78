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

Each figure is defined once, in :data:`FIGURES`: its swept axis and paper
x values, its algorithm line-up, the Fig 7 electrical/optical split, the
normalization reference and the paper's average reductions. The grid
runner, ``wrht-repro obs``, the ``check`` golden plans, the CLI summaries
and the report all read that table.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

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

# Paper defaults for the axes a figure does not sweep.
DEFAULT_NODES = 1024
DEFAULT_WAVELENGTHS = 64
HRING_M = 5


@dataclass(frozen=True)
class Figure:
    """One evaluation figure: an algorithm line-up over one swept axis.

    Attributes:
        x_label: The swept axis as result tables label it.
        axis: The cell parameter ``x`` sets: ``"m"`` (WRHT group size),
            ``"w"`` (wavelengths) or ``"N"`` (nodes).
        x_values: The paper's x values.
        algos: Display name -> base algorithm, in line-up order.
        reference: Normalization cell ``(workload, display name, x index)``;
            workload ``None`` normalizes each workload on its own.
        reductions: The paper's ``(baseline, target, reported %)`` average
            reductions.
        electrical: Display names priced on the electrical fat-tree unless
            an explicit ``backend`` forces every cell through one backend.
    """

    x_label: str
    axis: str
    x_values: tuple[int, ...]
    algos: dict[str, str]
    reference: tuple[str | None, str, int]
    reductions: tuple[tuple[str, str, float], ...] = ()
    electrical: frozenset[str] = frozenset()

    def cell(
        self, x: int, n_nodes: int = DEFAULT_NODES,
        n_wavelengths: int = DEFAULT_WAVELENGTHS,
    ) -> tuple[int, int, int | None]:
        """``(N, w, WRHT m)`` of the cell at ``x``; the arguments fill the
        axes the figure does not sweep. ``m=None`` leaves WRHT's group size
        to its builder; Fig 5 pins Lemma 1's ``min(2w+1, N)``."""
        if self.axis == "m":
            return n_nodes, n_wavelengths, x
        if self.axis == "w":
            return n_nodes, x, min(optimal_group_size(x), n_nodes)
        return x, n_wavelengths, None

    def backend(self, algo: str, mode: str, backend: str | None) -> str:
        """The backend that prices display name ``algo``."""
        if backend is None and algo in self.electrical:
            return "electrical"
        return _resolve_backend(mode, backend)


_OPTICAL_LINEUP = {"Ring": "Ring", "H-Ring": "H-Ring", "BT": "BT", "WRHT": "WRHT"}

#: Figs 4–7 (Sec 5.3–5.6), the one definition every consumer reads.
FIGURES = {
    "fig4": Figure(
        "grouped nodes (m)", "m", (17, 33, 65, 129), {"WRHT": "WRHT"},
        reference=(None, "WRHT", -1),
    ),
    "fig5": Figure(
        "wavelengths", "w", (4, 16, 64, 256), _OPTICAL_LINEUP,
        reference=("ResNet50", "WRHT", -1),
        reductions=(
            ("Ring", "WRHT", 13.74), ("H-Ring", "WRHT", 9.29),
            ("BT", "WRHT", 75.0),
        ),
    ),
    "fig6": Figure(
        "nodes", "N", (1024, 2048, 3072, 4096), _OPTICAL_LINEUP,
        reference=("ResNet50", "WRHT", 0),
        reductions=(
            ("Ring", "WRHT", 65.23), ("H-Ring", "WRHT", 43.81),
            ("BT", "WRHT", 82.22),
        ),
    ),
    "fig7": Figure(
        "nodes", "N", (128, 256, 512, 1024),
        {"E-Ring": "Ring", "RD": "RD", "O-Ring": "Ring", "WRHT": "WRHT"},
        reference=("ResNet50", "WRHT", 0),
        reductions=(
            ("E-Ring", "O-Ring", 48.74), ("E-Ring", "WRHT", 61.23),
            ("RD", "WRHT", 55.51),
        ),
        electrical=frozenset({"E-Ring", "RD"}),
    ),
}


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


def _build_cell_schedule(algo: str, n: int, w: int, workload: DnnWorkload,
                         wrht_m: int | None):
    """The schedule for one experiment cell (never materialized)."""
    kwargs: dict = {"materialize": False}
    if algo == "WRHT":
        kwargs.update(n_wavelengths=w, m=wrht_m)
    elif algo == "H-Ring":
        kwargs.update(m=HRING_M)
    return build_schedule(algo, n, workload.n_params, **kwargs)


def clear_network_caches() -> None:
    """Drop the per-process backend instances (benchmark hygiene).

    The next experiment call rebuilds its backends from scratch; the
    cross-run plan cache (:mod:`repro.backend.plancache`) is separate and
    unaffected.
    """
    _BACKENDS.clear()


def _figure_cell(
    workload: DnnWorkload, algo: str, x: int, *, figure: str, mode: str,
    interpretation: str, n_nodes: int, n_wavelengths: int,
    backend: str | None, t_tune: float, overlap: bool,
) -> float:
    """Seconds for display name ``algo`` at ``x`` of ``figure`` on one
    workload. Module-level so it pickles into sweep workers."""
    fig = FIGURES[figure]
    n, w, wrht_m = fig.cell(x, n_nodes, n_wavelengths)
    be = get_backend(
        fig.backend(algo, mode, backend), n, w, interpretation, t_tune, overlap
    )
    schedule = _build_cell_schedule(fig.algos[algo], n, w, workload, wrht_m)
    return be.run(schedule, bytes_per_elem=workload.bytes_per_param).total_time


def _run_figure(
    figure: str, x_values: tuple[int, ...], *, mode: str,
    interpretation: str, workloads: tuple[DnnWorkload, ...],
    workers: int | None, n_nodes: int = DEFAULT_NODES,
    n_wavelengths: int = DEFAULT_WAVELENGTHS, **knobs,
) -> ExperimentResult:
    """Price one figure's workload × line-up × x grid.

    ``knobs`` (``backend``, ``t_tune``, ``overlap``) pass through to every
    cell. ``meta["reference"]`` names the figure's normalization cell:
    ``(algo, x)`` when each workload is normalized on its own, else
    ``(workload, algo, x)``.
    """
    _check_mode(mode)
    fig = FIGURES[figure]
    cell = functools.partial(
        _figure_cell, figure=figure, mode=mode, interpretation=interpretation,
        n_nodes=n_nodes, n_wavelengths=n_wavelengths, **knobs,
    )
    grid = sweep(
        cell, {"workload": workloads, "algo": tuple(fig.algos), "x": x_values},
        workers=workers,
    )
    result = ExperimentResult(
        name=figure, mode=mode, interpretation=interpretation,
        x_label=fig.x_label, x_values=list(x_values),
        workloads=[wl.name for wl in workloads],
    )
    for wl in workloads:
        for algo in fig.algos:
            result.series[(wl.name, algo)] = [grid[(wl, algo, x)] for x in x_values]
    ref_workload, ref_algo, at = fig.reference
    ref = (ref_algo, x_values[at])
    result.meta["reference"] = ref if ref_workload is None else (ref_workload, *ref)
    return result


def run_table1(
    n_nodes: int = DEFAULT_NODES, n_wavelengths: int = DEFAULT_WAVELENGTHS,
    hring_m: int = HRING_M,
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
    n_nodes: int = DEFAULT_NODES,
    n_wavelengths: int = DEFAULT_WAVELENGTHS,
    group_sizes: tuple[int, ...] = FIGURES["fig4"].x_values,
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
    return _run_figure(
        "fig4", group_sizes, mode=mode, interpretation=interpretation,
        workloads=workloads, workers=workers, n_nodes=n_nodes,
        n_wavelengths=n_wavelengths, backend=backend, t_tune=t_tune,
        overlap=overlap,
    )


def run_fig5(
    mode: str = "analytical",
    interpretation: str = "calibrated",
    n_nodes: int = DEFAULT_NODES,
    wavelengths: tuple[int, ...] = FIGURES["fig5"].x_values,
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
    return _run_figure(
        "fig5", wavelengths, mode=mode, interpretation=interpretation,
        workloads=workloads, workers=workers, n_nodes=n_nodes,
        backend=backend, t_tune=t_tune, overlap=overlap,
    )


def run_fig6(
    mode: str = "analytical",
    interpretation: str = "calibrated",
    nodes: tuple[int, ...] = FIGURES["fig6"].x_values,
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
    return _run_figure(
        "fig6", nodes, mode=mode, interpretation=interpretation,
        workloads=workloads, workers=workers, n_wavelengths=n_wavelengths,
        backend=backend, t_tune=t_tune, overlap=overlap,
    )


def run_fig7(
    mode: str = "analytical",
    interpretation: str = "calibrated",
    nodes: tuple[int, ...] = FIGURES["fig7"].x_values,
    n_wavelengths: int = DEFAULT_WAVELENGTHS,
    workloads: tuple[DnnWorkload, ...] = PAPER_WORKLOADS,
    workers: int | None = None,
    backend: str | None = None,
    t_tune: float = 0.0,
    overlap: bool = True,
) -> ExperimentResult:
    """Fig 7: electrical fat-tree (E-Ring, RD) vs optical ring (O-Ring, WRHT).

    The electrical side is always the fluid simulation; ``mode`` selects how
    the optical side is priced. An explicit ``backend`` forces every flavor
    through that backend (like-for-like ablations). ``workers``
    parallelizes the grid over a process pool. ``t_tune``/``overlap``
    enable the MRR reconfiguration model on the optical flavors (the
    fat-tree has no MRRs, which is exactly the comparison Fig 7 makes).
    """
    return _run_figure(
        "fig7", nodes, mode=mode, interpretation=interpretation,
        workloads=workloads, workers=workers, n_wavelengths=n_wavelengths,
        backend=backend, t_tune=t_tune, overlap=overlap,
    )
