"""Experiment registry, result files, and provenance records.

Each experiment kind is one entry of :data:`EXPERIMENTS`: the config
sections it takes and a ``run(cfg)`` that returns a :class:`Result` and
writes nothing.  Each section is declared here once: a plain one as a dict
of :class:`Field`, one that becomes an object as a :class:`Section` with
its builder, which ``config.parse_config`` runs.  :func:`run` then writes a
table as ``<name>.csv`` and every output as ``<name>.json`` (summary keys,
plus ``rows`` as header-keyed dicts for a table).  Data files are
deterministic (identical config + seed gives byte-identical files);
timestamps live only in ``record.json``, beside the config hash, metrics
with verdicts and a manifest of hashes.  Every Monte Carlo verdict comes
from :func:`levylab.montecarlo.gate`, whose ``z`` its metric records.

Exit discipline (used by the CLI): 0 pass, 1 verdict fail, 2 usage or
config error, 3 numerical failure.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__, rng
from .errors import ConfigError
from .levy import JumpMeasure, LevyTriplet1D, LevyTriplet2D, char_exponent_1d, sample_ensemble
from .montecarlo import MCConfig, gate, mc_stats

EXIT_PASS = 0
EXIT_VERDICT_FAIL = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERICAL_FAILURE = 3


# --------------------------------------------------------------------------
# Config schemas
# --------------------------------------------------------------------------

#: Declared value ranges, by the name a :class:`Field` gives.
RANGES = {
    "positive": lambda v: v > 0,
    "nonnegative": lambda v: v >= 0,
    "at least 2": lambda v: v >= 2,
    "in [0, 2**64)": lambda v: 0 <= v < 1 << 64,
}


@dataclass(frozen=True)
class Field:
    """One config key: its type, default and declared range.

    ``range`` names an entry of :data:`RANGES`, checked on the value (on
    every entry of a list).  ``multiple_of`` names another key of the same
    section that must divide this one an integer number of times.
    """

    type: str
    required: bool = False
    default: object = None
    range: str | None = None
    multiple_of: str | None = None


@dataclass(frozen=True)
class Section:
    """A config section that becomes an object: its keys and its builder.

    ``build(values, built, run)`` gets the section's checked values, the
    sections built before it and the ``[run]`` values; it raises
    :class:`ConfigError` with finished messages, or ``ValueError`` for a
    domain invariant.  ``needs`` names the sections it reads (``"run"``
    included); the build is skipped when any of them, or its own, failed.
    """

    fields: dict[str, Field]
    build: Callable[[dict, dict, dict], object]
    needs: tuple[str, ...] = ()


def _build_triplet2(p: dict, built: dict, run: dict) -> LevyTriplet2D:
    a = p["alpha"]
    if len(a) != 3:
        raise ConfigError(["[triplet2] alpha: expected three entries a_pp, a_pq, a_qq"])
    return LevyTriplet2D(beta_p=p["beta_p"], beta_q=p["beta_q"], alpha=((a[0], a[1]), (a[1], a[2])),
                         jumps=JumpMeasure(atoms=p["atoms"]), h=p["h"])


def _build_mc(p: dict, built: dict, run: dict) -> MCConfig:
    anti = {"auto": "auto", "true": True, "false": False}.get(p.get("antithetic", "auto").lower())
    if anti is None:
        raise ConfigError(["[mc] antithetic: expected auto, true or false"])
    return MCConfig(n_paths=p["n_paths"], seed=run["seed"], antithetic=anti, threads=run["threads"])


#: Test functions ``func`` of ``[observable]`` and ``[genchk]``, by name, at a ``scale``.
OBSERVABLE_FUNCS = {
    "cos": lambda s: (lambda x: np.cos(s * x)),
    "bump": lambda s: (lambda x: np.exp(-0.5 * (s * x) ** 2)),
    "step": lambda s: (lambda x: np.tanh(s * x)),
    "one": lambda s: (lambda x: np.ones_like(np.asarray(x, dtype=float))),
}


def _test_function(section: str, p: dict) -> Callable:
    """The function ``func`` at ``scale`` named in ``[section]``."""
    if p["func"] not in OBSERVABLE_FUNCS:
        raise ConfigError([f"[{section}]: unknown func {p['func']!r} (choose from {sorted(OBSERVABLE_FUNCS)})"])
    return OBSERVABLE_FUNCS[p["func"]](p["scale"])


def _build_grid(p: dict, built: dict, run: dict):
    from .grid import GridSpec

    return GridSpec(n_points=p["n"], x_min=p["x_min"], dx=p["dx"])


def _build_state(p: dict, built: dict, run: dict):
    from .grid import gaussian_state

    return gaussian_state(built["grid"], p["center"], p["width"], p["momentum"])


def _build_observable(p: dict, built: dict, run: dict):
    from .grid import PTable, QTable, WeylLabel

    if p["kind"] == "weyl":
        return WeylLabel(p["x"], p["v"])
    fn = _test_function("observable", p)
    label = f"{p['func']}({p['scale']:g})"
    if p["kind"] == "qtable":
        return QTable.from_function(built["grid"], fn, label=f"{label}(Q)")
    if p["kind"] == "ptable":
        return PTable.from_function(built["grid"], fn, label=f"{label}(P)")
    raise ConfigError([f"[observable]: unknown kind {p['kind']!r} (qtable, ptable or weyl)"])


def _build_drift(p: dict, built: dict, run: dict):
    """The drift named in ``[feller]``, once the name and feller-classify's expected verdicts check out."""
    from .feller import DRIFTS, DriftSpec

    bad = [f"[feller] {key}: invalid verdict {p[key]!r}" for key in ("expect_left", "expect_right")
           if p.get(key, "") not in ("", "absorbing", "non-absorbing")]
    if p["drift"] not in DRIFTS:
        bad.insert(0, f"[feller] drift: unknown drift {p['drift']!r} ({', '.join(DRIFTS)})")
    if bad:
        raise ConfigError(bad)
    return DriftSpec(p["drift"], p["l"], p["x0"], p["coefficient"])


_TRIPLET = Section({
    "beta": Field("float", default=0.0),
    "alpha": Field("float", default=0.0),
    "h": Field("float", default=1.0),
    "atoms": Field("atoms1d", default=()),
}, lambda p, built, run: LevyTriplet1D(p["beta"], p["alpha"], JumpMeasure(p["atoms"]), p["h"]))

_TRIPLET2 = Section({
    "beta_p": Field("float", default=0.0),
    "beta_q": Field("float", default=0.0),
    "alpha": Field("list_float", default=[0.0, 0.0, 0.0]),
    "h": Field("float", default=1.0),
    "atoms": Field("atoms2d", default=()),
}, _build_triplet2)

_GRID = Section({
    "n": Field("int", default=1024),
    "x_min": Field("float", default=-40.0),
    "dx": Field("float", default=0.078125),
}, _build_grid)

_STATE = Section({
    "center": Field("float", default=0.0),
    "width": Field("float", default=1.0, range="positive"),
    "momentum": Field("float", default=0.0),
}, _build_state, needs=("grid",))

_MC = Section({"n_paths": Field("int", required=True)}, _build_mc, needs=("run",))
#: mc-semigroup's ``[mc]``: its estimator is the only reader of antithetic pairing.
_MC_ANTITHETIC = Section({**_MC.fields, "antithetic": Field("str", default="auto")}, _build_mc, needs=("run",))

_OBSERVABLE = Section({
    "kind": Field("str", required=True),
    "func": Field("str", default="cos"),
    "scale": Field("float", default=0.7),
    "x": Field("float", default=0.0),
    "v": Field("float", default=0.0),
}, _build_observable, needs=("grid",))

_DRIFT_FIELDS = {
    "drift": Field("str", required=True),
    "coefficient": Field("float", default=1.0),
    "l": Field("float", default=0.0),
    "x0": Field("float", default=1.0),
}
_DRIFT = Section(_DRIFT_FIELDS, _build_drift)


@dataclass
class RunConfig:
    """Validated experiment description.

    ``params`` holds one entry per schema section: the built object of a
    :class:`Section`, the checked values of a plain section.  ``values``
    holds every schema section's checked values.
    """

    kind: str
    seed: int
    out_dir: str
    threads: int
    params: dict
    values: dict
    text_hash: str


# --------------------------------------------------------------------------
# Results and the registry
# --------------------------------------------------------------------------

@dataclass
class Output:
    """One named output: summary keys, plus a table when ``header`` is set."""

    name: str
    summary: dict
    header: tuple[str, ...] = ()
    rows: list = field(default_factory=list)


@dataclass
class Metric:
    """One ``record.json`` metric; ``verdict`` feeds the run's verdict, ``z`` is that of its Monte Carlo gate."""

    value: object
    stderr: float | None = None
    verdict: str | None = None
    z: float | None = None


@dataclass
class Result:
    """What an experiment returns; :func:`run` writes it."""

    outputs: list[Output]
    metrics: dict[str, Metric]


@dataclass(frozen=True)
class Experiment:
    """One experiment kind, keyed by its name in :data:`EXPERIMENTS`: its config sections and the computation."""

    schema: dict[str, dict[str, Field] | Section]
    run: Callable[[RunConfig], Result]


#: Every experiment kind, in CLI order.
EXPERIMENTS: dict[str, Experiment] = {}


def _experiment(kind: str, **schema: dict[str, Field] | Section):
    """Register the decorated ``run(cfg) -> Result`` as ``kind`` with config sections ``schema``."""

    def register(fn: Callable[[RunConfig], Result]) -> Callable[[RunConfig], Result]:
        EXPERIMENTS[kind] = Experiment(schema, fn)
        return fn

    return register


def _verdict(passed: bool, inconclusive: bool = False) -> str:
    return "inconclusive" if inconclusive else ("pass" if passed else "fail")


# --------------------------------------------------------------------------
# Experiments
# --------------------------------------------------------------------------

@_experiment("char-check", triplet=_TRIPLET, check={
    "t": Field("list_float", default=[0.5, 1.0], range="nonnegative"),
    "args": Field("list_float", required=True),
    "n_samples": Field("int", default=100000, range="positive"),
    "sigmas": Field("float", default=4.0, range="positive"),
})
def _char_check(cfg: RunConfig) -> Result:
    p = cfg.params["check"]
    triplet = cfg.params["triplet"]
    rows, ratios, gates = [], [], []
    chunks = -(-p["n_samples"] // rng.CHUNK)  # streams per time: each time gets its own index range
    for ti, t in enumerate(p["t"]):
        xs = sample_ensemble(triplet, t, p["n_samples"], cfg.seed, threads=cfg.threads,
                             tag="char-check", first_index=ti * chunks)
        for lam in p["args"]:
            emp, se = mc_stats(np.exp(1j * (xs * lam)))
            theo = np.exp(t * char_exponent_1d(triplet, lam))
            dist = abs(emp - theo)
            gates.append(gate(dist, se, p["sigmas"], 1e-12))
            ratios.append(dist / gates[-1].band)
            rows.append([t, lam, emp.real, emp.imag, theo.real, theo.imag, se, dist, gates[-1].passed])
    worst = int(np.argmax(ratios))
    header = ("t", "arg", "emp_re", "emp_im", "theory_re", "theory_im", "stderr", "distance", "pass")
    return Result([Output("char_check", {}, header, rows)],
                  {"worst_distance_over_budget": Metric(ratios[worst], z=gates[worst].z,
                                                        verdict=_verdict(all(g.passed for g in gates)))})


@_experiment("mc-semigroup", triplet=_TRIPLET, grid=_GRID, state=_STATE, mc=_MC_ANTITHETIC,
             observable=_OBSERVABLE,
             semigroup={"t": Field("list_float", default=[1.0], range="nonnegative")})
def _mc_semigroup(cfg: RunConfig) -> Result:
    from .semigroup import mc_heisenberg_expectation

    psi = cfg.params["state"]
    obs = cfg.params["observable"]
    rows = []
    overflow = 0.0
    for t in cfg.params["semigroup"]["t"]:
        print(json.dumps({"progress": "mc-semigroup", "t": t}), file=sys.stderr, flush=True)
        res = mc_heisenberg_expectation(cfg.params["triplet"], psi, obs, t, cfg.params["mc"])
        overflow = max(overflow, res.overflow_fraction)
        rows.append([t, obs.label, res.estimate.real, res.estimate.imag,
                     res.stderr, res.n_paths, res.seed])
    header = ("t", "observable", "estimate_re", "estimate_im", "stderr", "n_paths", "seed")
    # overflow_fraction: largest share of paths reaching the boundary window, below the abort threshold
    return Result([Output("semigroup", {}, header, rows)],
                  {"points": Metric(len(rows)), "overflow_fraction": Metric(overflow)})


@_experiment("generator-check", triplet=_TRIPLET, mc=_MC, genchk=Section({
    "t_small": Field("float", default=0.01, range="positive"),
    "points": Field("list_float", default=[-2.0, -1.0, 0.0, 1.0, 2.0]),
    "func": Field("str", default="bump"),
    "scale": Field("float", default=1.0),
}, lambda p, built, run: {**p, "func": _test_function("genchk", p)}))
def _generator_check(cfg: RunConfig) -> Result:
    from .semigroup import generator_consistency_check

    p = cfg.params["genchk"]
    points = np.asarray(p["points"], dtype=float)
    report = generator_consistency_check(cfg.params["triplet"], p["func"], p["t_small"], cfg.params["mc"], points)
    worst = int(np.argmax(report.deviation))
    verdict = _verdict(report.gate.passed.all(), report.inconclusive)
    summary = {"max_deviation": report.deviation[worst], "passed": verdict == "pass",
               "inconclusive": report.inconclusive}
    rows = list(zip(points, report.quotient, report.generator, report.gate.band))
    return Result(
        [Output("generator_check", summary, ("x", "quotient", "generator", "band"), rows)],
        {"max_deviation": Metric(report.deviation[worst], z=report.gate.z[worst], verdict=verdict)},
    )


@_experiment("cp-suite", suite={
    "count": Field("int", default=20, range="positive"),
    "max_dim": Field("int", default=4, range="at least 2"),
    "max_jumps": Field("int", default=3, range="positive"),
    "times": Field("list_float", default=[0.1, 1.0, 10.0], range="nonnegative"),
})
def _cp_suite(cfg: RunConfig) -> Result:
    from .generators import choi_matrix, is_completely_positive, random_standard_generator, structure_rows

    p = cfg.params["suite"]
    shapes = rng.stream(cfg.seed, "cp-suite.shapes")
    draws = [(int(shapes.integers(2, p["max_dim"] + 1)), int(shapes.integers(1, p["max_jumps"] + 1)),
              bool(shapes.integers(0, 2))) for _ in range(p["count"])]
    gens = [random_standard_generator(d, m, cfg.seed, unital=unital, tag="cp-suite.generator", index=i)
            for i, (d, m, unital) in enumerate(draws)]
    rows = [[i, *draw, r.conditionally_cp, r.choi_min_eig, r.preserves_identity, r.passed]
            for i, (draw, r) in enumerate(zip(draws, structure_rows(gens, p["times"])))]
    transpose = np.eye(4)[[0, 2, 1, 3]]  # S[j + 2i, i + 2j] = 1: the superoperator of X -> X^T
    cp_ok, witness = is_completely_positive(choi_matrix(transpose, 2))
    transpose_ok = (not cp_ok) and abs(witness + 1.0) <= 1e-10
    header = ("index", "dim", "jumps", "unital", "conditionally_cp", "choi_min_eig", "preserves_identity", "pass")
    return Result(
        [Output("cp_suite", {"transpose_witness": witness, "transpose_rejected": transpose_ok}, header, rows)],
        {"transpose_witness": Metric(witness, verdict=_verdict(transpose_ok)),
         "suite": Metric(p["count"], verdict=_verdict(all(r[-1] for r in rows)))},
    )


@_experiment("dyson", dyson={
    "gamma": Field("float", default=1.0, range="nonnegative"),
    "drive": Field("float", default=0.5),
    "detuning": Field("float", default=0.25),
    "t": Field("float", default=1.0, range="nonnegative"),
    "n_terms": Field("int", default=12, range="nonnegative"),
})
def _dyson(cfg: RunConfig) -> Result:
    from .generators import StandardGenerator, dyson_terms, exact_evolve, superop_matrix

    p = cfg.params["dyson"]
    sigma_minus = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    H = 0.5 * p["drive"] * np.array([[0.0, 1.0], [1.0, 0.0]]) + 0.5 * p["detuning"] * np.diag([1.0, -1.0])
    gen = StandardGenerator.unital_build(H, [np.sqrt(p["gamma"]) * sigma_minus])
    terms = dyson_terms(gen, p["t"], p["n_terms"])
    exact = exact_evolve(superop_matrix(gen), p["t"])
    partial = np.zeros_like(exact)
    rows = []
    for n, term in enumerate(terms):
        partial = partial + term
        err = float(np.abs(partial - exact).max())
        rows.append([n, float(np.linalg.norm(term, 2)), err])
    final_err = rows[-1][2]
    return Result(
        [Output("dyson", {"final_error": final_err, "n_terms": p["n_terms"]}, ("n", "term_norm", "truncation_error"), rows)],
        {"final_error": Metric(final_err, verdict=_verdict(final_err <= 1e-6))},
    )


@_experiment("gauge-suite", suite={
    "count": Field("int", default=20, range="positive"),
    "d": Field("int", default=2, range="positive"),
    "m": Field("int", default=3, range="positive"),
})
def _gauge_suite(cfg: RunConfig) -> Result:
    from .generators import GaugeElement, apply_gauge, gauge_group_law_check, random_standard_generator, superop_matrix

    p = cfg.params["suite"]
    rows = []
    worst_action = 0.0
    worst_law = 0.0
    m = p["m"]

    def random_element(stream):
        Q, _ = np.linalg.qr(stream.standard_normal((m, m)) + 1j * stream.standard_normal((m, m)))
        a = stream.standard_normal(m) + 1j * stream.standard_normal(m)
        return GaugeElement(D=Q, a=a, b=float(stream.standard_normal()))

    for i in range(p["count"]):
        g = random_standard_generator(p["d"], m, cfg.seed, tag="gauge-suite.generator", index=i)
        stream = rng.stream(cfg.seed, "gauge-suite.elements", i)
        elem, elem2 = random_element(stream), random_element(stream)
        S = superop_matrix([g, apply_gauge(g, elem)])
        action = float(np.abs(S[1] - S[0]).max())
        law = gauge_group_law_check(elem, elem2, g)
        worst_action = max(worst_action, action)
        worst_law = max(worst_law, law)
        rows.append([i, action, law])
    return Result(
        [Output("gauge_suite", {}, ("index", "action_defect", "group_law_defect"), rows)],
        {"worst_action_defect": Metric(worst_action, verdict=_verdict(worst_action <= 1e-10)),
         "worst_group_law_defect": Metric(worst_law, verdict=_verdict(worst_law <= 1e-10))},
    )


@_experiment("galilei-compare", triplet2=_TRIPLET2, grid=_GRID, state=_STATE, mc=_MC,
             galilei={
                 "x0": Field("float", default=0.0),
                 "v0": Field("float", default=1.0),
                 "t": Field("float", default=1.0, range="nonnegative"),
                 "n_steps": Field("int", default=64, range="positive"),
                 "free": Field("bool", default=True),
             })
def _galilei_compare(cfg: RunConfig) -> Result:
    from .galilean import GalileanGenerator, mc_vs_closed_form

    p = cfg.params["galilei"]
    gen = GalileanGenerator(cfg.params["triplet2"], include_free_hamiltonian=p["free"])
    print(json.dumps({"progress": "galilei-compare", "n_steps": [p["n_steps"], 2 * p["n_steps"]]}), file=sys.stderr,
          flush=True)
    rep = mc_vs_closed_form(gen, p["x0"], p["v0"], cfg.params["state"], p["t"], p["n_steps"], cfg.params["mc"])
    summary = {
        "closed_value": rep.closed_value,
        "closed_multiplier": rep.closed_symbol.multiplier,
        "closed_point": list(rep.closed_symbol.point),
        "mc_coarse": rep.mc_coarse.estimate,
        "mc_fine": rep.mc_fine.estimate,
        "stderr_coarse": rep.mc_coarse.stderr,
        "stderr_fine": rep.mc_fine.stderr,
        "split_defect": rep.split_defect,
        "deviation_coarse": rep.deviation_coarse,
        "deviation_fine": rep.deviation_fine,
        "band_coarse": rep.gate_coarse.band,
        "band_fine": rep.gate_fine.band,
        "order_estimate": rep.order_estimate,
        "passed": rep.gate_coarse.passed and rep.gate_fine.passed and not rep.inconclusive,
        "inconclusive": rep.inconclusive,
        "labels": [p["x0"], p["v0"]],
    }
    overflow = max(rep.mc_coarse.overflow_fraction, rep.mc_fine.overflow_fraction)
    return Result([Output("galilei_compare", summary)],
                  {"deviation_coarse": Metric(rep.deviation_coarse, z=rep.gate_coarse.z,
                                              verdict=_verdict(rep.gate_coarse.passed, rep.inconclusive)),
                   "deviation_fine": Metric(rep.deviation_fine, z=rep.gate_fine.z,
                                            verdict=_verdict(rep.gate_fine.passed, rep.inconclusive)),
                   "overflow_fraction": Metric(overflow)})


@_experiment("covariance-check", triplet2=_TRIPLET2, grid=_GRID, state=_STATE, mc=_MC,
             galilei={
                 "x": Field("float", default=1.0),
                 "v": Field("float", default=0.8),
                 "t": Field("float", default=0.7, range="nonnegative"),
                 "n_steps": Field("int", default=32, range="positive"),
                 "free": Field("bool", default=True),
             })
def _covariance_check(cfg: RunConfig) -> Result:
    from .galilean import GalileanGenerator, galilean_covariance_check

    p = cfg.params["galilei"]
    gen = GalileanGenerator(cfg.params["triplet2"], include_free_hamiltonian=p["free"])
    defect = galilean_covariance_check(
        gen, p["x"], p["v"], p["t"], cfg.params["state"], cfg.params["mc"], n_steps=p["n_steps"]
    )
    return Result([Output("covariance_check", {"defect": defect, "x": p["x"], "v": p["v"], "t": p["t"]})],
                  {"defect": Metric(defect, verdict=_verdict(defect <= 1e-10))})


@_experiment("feller-classify", feller=Section({
    **_DRIFT_FIELDS,
    "expect_left": Field("str", default=""),
    "expect_right": Field("str", default=""),
}, _build_drift))
def _feller_classify(cfg: RunConfig) -> Result:
    from .feller import feller_test

    report = feller_test(cfg.params["feller"])
    raw = cfg.values["feller"]
    verdicts = {side: _verdict(getattr(report, side) == raw[f"expect_{side}"])
                for side in ("left", "right") if raw[f"expect_{side}"]}
    summary = {"left": report.left, "right": report.right, "diagnostics": report.diagnostics}
    return Result([Output("boundary", summary)],
                  {side: Metric(getattr(report, side), verdict=verdicts.get(side)) for side in ("left", "right")})


@_experiment("killed-diffusion", feller=_DRIFT, mc=_MC, kd={
    "x_start": Field("float", default=1.0),
    "t": Field("float", default=1.0, range="nonnegative", multiple_of="dt"),
    "dt": Field("float", default=0.001, range="positive"),
    "expect": Field("float", default=float("nan")),
    "tol": Field("float", default=0.01, range="nonnegative"),
})
def _killed_diffusion(cfg: RunConfig) -> Result:
    from .feller import simulate_killed_diffusion

    p = cfg.params["kd"]
    curve = simulate_killed_diffusion(cfg.params["feller"], p["x_start"], p["t"], p["dt"], cfg.params["mc"])
    survival = Metric(curve.final, stderr=curve.final_stderr)
    if not np.isnan(p["expect"]):
        g = gate(abs(curve.final - p["expect"]), curve.final_stderr, 0.0, p["tol"])
        survival.z, survival.verdict = g.z, _verdict(g.passed)
    rows = list(zip(curve.times, curve.survival, curve.stderr))
    return Result(
        [Output("survival", {"final": curve.final, "stderr": curve.final_stderr, "dt": p["dt"]},
                ("t", "survival", "stderr"), rows)],
        {"survival": survival},
    )


# --------------------------------------------------------------------------
# Result files and the record
# --------------------------------------------------------------------------

def _fmt(value) -> str:
    """Deterministic scalar formatting for CSV cells; ``None`` is an empty cell."""
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    if isinstance(value, complex):
        return f"{value.real:.17g}{value.imag:+.17g}j"
    return str(value)


def _jsonify(value):
    """``value`` as plain JSON data; a non-finite float becomes ``None`` (JSON has no NaN or infinity)."""
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value) if np.isfinite(value) else None
    if isinstance(value, (complex, np.complexfloating)):
        return {"re": _jsonify(value.real), "im": _jsonify(value.imag)}
    if isinstance(value, np.ndarray):
        return _jsonify(value.tolist())
    return value


def _dumps(payload) -> str:
    return json.dumps(_jsonify(payload), sort_keys=True, indent=1) + "\n"


class _Workspace:
    """The output directory of one run, and the manifest of the data files written to it."""

    def __init__(self, out_dir: str):
        self.dir = Path(out_dir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.manifest: dict[str, str] = {}

    def _register(self, path: Path) -> None:
        self.manifest[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()

    def write(self, out: Output) -> None:
        """Write ``out`` by the table -> file rule of the module docstring."""
        if out.header:
            self.write_csv(out.name, out.header, out.rows)
        self.write_json(out.name, {**out.summary, "rows": [dict(zip(out.header, row)) for row in out.rows]}
                        if out.header else out.summary)

    def write_csv(self, name: str, header: tuple[str, ...], rows: list) -> None:
        path = self.dir / f"{name}.csv"
        lines = [",".join(header)]
        lines += [",".join(_fmt(cell) for cell in row) for row in rows]
        path.write_text("\n".join(lines) + "\n")
        self._register(path)

    def write_json(self, name: str, payload) -> None:
        path = self.dir / f"{name}.json"
        path.write_text(_dumps(payload))
        self._register(path)

    def write_record(self, record: dict) -> Path:
        path = self.dir / "record.json"
        path.write_text(_dumps(record))
        return path


def run(cfg: RunConfig) -> tuple[dict, Path]:
    """Execute a validated config, write its outputs, then its record; returns the record and its path on disk.

    The output directory is created only after the experiment returns, so a
    run that raises leaves none behind.  The record is built once the data
    files are written: provenance, each metric with its ``stderr``,
    ``verdict`` and ``z`` when set (a non-finite ``z`` as ``null``), the
    manifest of data-file hashes, and the run's verdict, ``fail`` if any
    metric fails, else ``inconclusive`` if any metric is, else ``pass``.
    """
    started = time.time()
    result = EXPERIMENTS[cfg.kind].run(cfg)
    ws = _Workspace(cfg.out_dir)
    for out in result.outputs:
        ws.write(out)
    verdicts = {metric.verdict for metric in result.metrics.values()}
    record = _jsonify({
        "config_hash": cfg.text_hash,
        "kind": cfg.kind,
        "seed": cfg.seed,
        "version": __version__,
        "started": started,
        "finished": time.time(),
        "metrics": {name: {key: v for key, v in vars(m).items() if key == "value" or v is not None}
                    for name, m in result.metrics.items()},
        "manifest": ws.manifest,
        "verdict": "fail" if "fail" in verdicts else "inconclusive" if "inconclusive" in verdicts else "pass",
    })
    return record, ws.write_record(record)
