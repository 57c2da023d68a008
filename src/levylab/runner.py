"""Experiment dispatch, result files, and provenance records.

Every run writes deterministic data files (identical config + seed gives
byte-identical CSV/JSON) plus a ``record.json`` carrying the config hash,
timestamps, per-metric values with verdicts, and a manifest of content
hashes.  Timestamps live only in the record, never in data files, so the
determinism contract covers everything numeric.

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

import numpy as np

from . import __version__, rng
from .config import OBSERVABLE_FUNCS, RunConfig
from .errors import NumericalFailure
from .levy import (
    char_exponent_1d,
    empirical_char_function,
    sample_ensemble,
    sample_increments,
)

EXIT_PASS = 0
EXIT_VERDICT_FAIL = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERICAL_FAILURE = 3


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
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, (complex, np.complexfloating)):
        return {"re": float(value.real), "im": float(value.imag)}
    if isinstance(value, np.ndarray):
        return _jsonify(value.tolist())
    return value


@dataclass
class OutputRecord:
    """Provenance for one run: hash, version, metrics with verdicts, manifest."""

    config_hash: str
    kind: str
    seed: int
    version: str
    started: float
    finished: float = 0.0
    metrics: dict = field(default_factory=dict)
    manifest: dict = field(default_factory=dict)
    verdict: str = "pass"

    def add_metric(self, name: str, value, stderr=None, verdict=None) -> None:
        entry = {"value": _jsonify(value)}
        if stderr is not None:
            entry["stderr"] = float(stderr)
        if verdict is not None:
            entry["verdict"] = verdict
            if verdict == "fail":
                self.verdict = "fail"
            elif verdict == "inconclusive" and self.verdict == "pass":
                self.verdict = "inconclusive"
        self.metrics[name] = entry

    def exit_code(self) -> int:
        return EXIT_PASS if self.verdict == "pass" else EXIT_VERDICT_FAIL


class _Workspace:
    def __init__(self, record: OutputRecord, out_dir: str, formats: str):
        self.record = record
        self.dir = Path(out_dir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.formats = formats

    def _register(self, path: Path) -> None:
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        self.record.manifest[path.name] = digest

    def write_csv(self, name: str, header: list[str], rows: list[list]) -> None:
        if self.formats == "json":
            return
        path = self.dir / f"{name}.csv"
        lines = [",".join(header)]
        lines += [",".join(_fmt(cell) for cell in row) for row in rows]
        path.write_text("\n".join(lines) + "\n")
        self._register(path)

    def write_json(self, name: str, payload) -> None:
        if self.formats == "csv":
            return
        path = self.dir / f"{name}.json"
        path.write_text(json.dumps(_jsonify(payload), sort_keys=True, indent=1) + "\n")
        self._register(path)

    def write_record(self) -> Path:
        self.record.finished = time.time()
        path = self.dir / "record.json"
        payload = {
            "config_hash": self.record.config_hash,
            "kind": self.record.kind,
            "seed": self.record.seed,
            "version": self.record.version,
            "started": self.record.started,
            "finished": self.record.finished,
            "metrics": self.record.metrics,
            "manifest": self.record.manifest,
            "verdict": self.record.verdict,
        }
        path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")
        return path


def _progress(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


# --------------------------------------------------------------------------
# Experiments
# --------------------------------------------------------------------------

def _run_levy_sample(cfg: RunConfig, ws: _Workspace) -> None:
    p = cfg.params["sample"]
    grid = np.linspace(0.0, p["t_max"], p["n_steps"] + 1)
    sample = sample_increments(cfg.params["triplet"], grid, cfg.seed)
    rows = [[t, x] for t, x in zip(sample.times, sample.values)]
    ws.write_csv("path", ["time", "xi"], rows)
    ws.write_json("path", {
        "rows": [{"time": t, "xi": x} for t, x in rows],
        "jumps": [{"time": t, "magnitude": m} for t, m in sample.jump_log],
        "seed": sample.seed,
    })
    ws.record.add_metric("n_steps", p["n_steps"])
    ws.record.add_metric("big_jumps", len(sample.jump_log))


def _run_char_check(cfg: RunConfig, ws: _Workspace) -> None:
    p = cfg.params["check"]
    triplet = cfg.params["triplet"]
    rows = []
    worst = 0.0
    all_pass = True
    chunks = -(-p["n_samples"] // rng.CHUNK)  # streams per time: each time gets its own index range
    for ti, t in enumerate(p["t"]):
        xs = sample_ensemble(triplet, t, p["n_samples"], cfg.seed, threads=cfg.threads,
                             tag="char-check", first_index=ti * chunks)
        for lam in p["args"]:
            emp, se = empirical_char_function(xs, lam)
            theo = np.exp(t * char_exponent_1d(triplet, lam))
            dist = abs(emp - theo)
            budget = p["sigmas"] * se + 1e-12
            ok = dist <= budget
            all_pass &= ok
            worst = max(worst, dist / budget if budget > 0 else 0.0)
            rows.append([t, lam, emp.real, emp.imag, theo.real, theo.imag, se, dist, ok])
    ws.write_csv("char_check", ["t", "arg", "emp_re", "emp_im", "theory_re", "theory_im", "stderr", "distance", "pass"], rows)
    ws.write_json("char_check", {"rows": [dict(zip(["t", "arg", "emp_re", "emp_im", "theory_re", "theory_im", "stderr", "distance", "pass"], r)) for r in rows]})
    ws.record.add_metric("worst_distance_over_budget", worst, verdict="pass" if all_pass else "fail")


def _run_mc_semigroup(cfg: RunConfig, ws: _Workspace) -> None:
    from .semigroup import NoiseSemigroupSpec, mc_heisenberg_expectation

    spec = NoiseSemigroupSpec(cfg.params["triplet"], cfg.params["grid"])
    psi = cfg.params["state"]
    obs = cfg.params["observable"]
    rows = []
    overflow = 0.0
    for t in cfg.params["semigroup"]["t"]:
        _progress(f"mc-semigroup: t = {t}")
        res = mc_heisenberg_expectation(spec, psi, obs, t, cfg.params["mc"])
        overflow = max(overflow, res.overflow_fraction)
        rows.append([t, getattr(obs, "label", "W"), res.estimate.real, res.estimate.imag,
                     res.stderr, res.n_paths, res.seed])
    header = ["t", "observable", "estimate_re", "estimate_im", "stderr", "n_paths", "seed"]
    ws.write_csv("semigroup", header, rows)
    ws.write_json("semigroup", {"rows": [dict(zip(header, r)) for r in rows]})
    ws.record.add_metric("points", len(rows))
    # Largest share of paths reaching the boundary window, below the abort threshold.
    ws.record.add_metric("overflow_fraction", overflow)


def _run_generator_check(cfg: RunConfig, ws: _Workspace) -> None:
    from .semigroup import generator_consistency_check

    p = cfg.params["genchk"]
    fn = OBSERVABLE_FUNCS[p["func"]](p["scale"]) if p["func"] in OBSERVABLE_FUNCS else None
    if fn is None:
        raise NumericalFailure(f"unknown test function {p['func']!r}", {})
    report = generator_consistency_check(
        cfg.params["triplet"], fn, p["t_small"], cfg.params["mc"], np.asarray(p["points"])
    )
    rows = [
        [x, q, g, b] for x, q, g, b in zip(report.x, report.quotient, report.generator, report.band)
    ]
    ws.write_csv("generator_check", ["x", "quotient", "generator", "band"], rows)
    ws.write_json("generator_check", {
        "max_deviation": report.max_deviation,
        "passed": report.passed,
        "inconclusive": report.inconclusive,
    })
    verdict = "inconclusive" if report.inconclusive else ("pass" if report.passed else "fail")
    ws.record.add_metric("max_deviation", report.max_deviation, verdict=verdict)


def _run_cp_suite(cfg: RunConfig, ws: _Workspace) -> None:
    from .generators import is_completely_positive, random_standard_generator, structure_row

    p = cfg.params["suite"]
    shapes = rng.stream(cfg.seed, "cp-suite.shapes")
    rows = []
    all_pass = True
    for i in range(p["count"]):
        d = int(shapes.integers(2, p["max_dim"] + 1))
        m = int(shapes.integers(1, p["max_jumps"] + 1))
        unital = bool(shapes.integers(0, 2))
        g = random_standard_generator(d, m, cfg.seed, unital=unital, tag="cp-suite.generator", index=i)
        row = structure_row(g, p["times"])
        all_pass &= row.passed
        rows.append([i, d, m, unital, row.conditionally_cp, row.choi_min_eig, row.preserves_identity, row.passed])
    cp_ok, witness = is_completely_positive(lambda X: X.T, 2)
    transpose_ok = (not cp_ok) and abs(witness + 1.0) <= 1e-10
    all_pass &= transpose_ok
    header = ["index", "dim", "jumps", "unital", "conditionally_cp", "choi_min_eig", "preserves_identity", "pass"]
    ws.write_csv("cp_suite", header, rows)
    ws.write_json("cp_suite", {"transpose_witness": witness, "transpose_rejected": transpose_ok})
    ws.record.add_metric("transpose_witness", witness)
    ws.record.add_metric("suite", p["count"], verdict="pass" if all_pass else "fail")


def _run_dyson(cfg: RunConfig, ws: _Workspace) -> None:
    from .generators import StandardGenerator, dyson_terms, exact_evolve

    p = cfg.params["dyson"]
    sigma_minus = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    H = 0.5 * p["drive"] * np.array([[0.0, 1.0], [1.0, 0.0]]) + 0.5 * p["detuning"] * np.diag([1.0, -1.0])
    gen = StandardGenerator.unital_build(H, [np.sqrt(p["gamma"]) * sigma_minus])
    terms = dyson_terms(gen, p["t"], p["n_terms"])
    exact = exact_evolve(gen, p["t"])
    partial = np.zeros_like(exact)
    rows = []
    for n, term in enumerate(terms):
        partial = partial + term
        err = float(np.abs(partial - exact).max())
        rows.append([n, float(np.linalg.norm(term, 2)), err])
    ws.write_csv("dyson", ["n", "term_norm", "truncation_error"], rows)
    final_err = rows[-1][2]
    ws.write_json("dyson", {"final_error": final_err, "n_terms": p["n_terms"]})
    ws.record.add_metric("final_error", final_err, verdict="pass" if final_err <= 1e-6 else "fail")


def _run_gauge_suite(cfg: RunConfig, ws: _Workspace) -> None:
    from .generators import (
        GaugeElement,
        apply_gauge,
        apply_generator,
        gauge_group_law_check,
        hermitian_basis,
        random_standard_generator,
    )

    p = cfg.params["suite"]
    rows = []
    worst_action = 0.0
    worst_law = 0.0
    for i in range(p["count"]):
        g = random_standard_generator(p["d"], p["m"], cfg.seed, tag="gauge-suite.generator", index=i)
        stream = rng.stream(cfg.seed, "gauge-suite.elements", i)
        A = stream.standard_normal((p["m"], p["m"])) + 1j * stream.standard_normal((p["m"], p["m"]))
        Q, _ = np.linalg.qr(A)
        a = stream.standard_normal(p["m"]) + 1j * stream.standard_normal(p["m"])
        b = float(stream.standard_normal())
        elem = GaugeElement(D=tuple(map(tuple, Q)), a=tuple(a), b=b)
        transformed = apply_gauge(g, elem)
        action = max(
            float(np.abs(apply_generator(transformed, X) - apply_generator(g, X)).max())
            for X in hermitian_basis(p["d"])
        )
        A2 = stream.standard_normal((p["m"], p["m"])) + 1j * stream.standard_normal((p["m"], p["m"]))
        Q2, _ = np.linalg.qr(A2)
        a2 = stream.standard_normal(p["m"]) + 1j * stream.standard_normal(p["m"])
        elem2 = GaugeElement(D=tuple(map(tuple, Q2)), a=tuple(a2), b=float(stream.standard_normal()))
        law = gauge_group_law_check(elem, elem2, g)
        worst_action = max(worst_action, action)
        worst_law = max(worst_law, law)
        rows.append([i, action, law])
    ws.write_csv("gauge_suite", ["index", "action_defect", "group_law_defect"], rows)
    ok = worst_action <= 1e-10 and worst_law <= 1e-10
    ws.record.add_metric("worst_action_defect", worst_action)
    ws.record.add_metric("worst_group_law_defect", worst_law, verdict="pass" if ok else "fail")


def _run_galilei_compare(cfg: RunConfig, ws: _Workspace) -> None:
    from .galilean import GalileanGenerator, mc_vs_closed_form

    p = cfg.params["galilei"]
    gen = GalileanGenerator(cfg.params["triplet2"], include_free_hamiltonian=p["free"])
    _progress(f"galilei-compare: n_steps = {p['n_steps']} and {2 * p['n_steps']}")
    rep = mc_vs_closed_form(gen, p["x0"], p["v0"], cfg.params["state"], p["t"], p["n_steps"], cfg.params["mc"])
    payload = {
        "closed_value": rep.closed_value,
        "closed_multiplier": rep.closed_multiplier,
        "closed_point": list(rep.closed_point),
        "mc_coarse": rep.mc_coarse.estimate,
        "mc_fine": rep.mc_fine.estimate,
        "stderr_coarse": rep.mc_coarse.stderr,
        "stderr_fine": rep.mc_fine.stderr,
        "split_defect": rep.split_defect,
        "deviation_coarse": rep.deviation_coarse,
        "deviation_fine": rep.deviation_fine,
        "band_coarse": rep.band_coarse,
        "band_fine": rep.band_fine,
        "order_estimate": rep.order_estimate,
        "passed": rep.passed,
        "inconclusive": rep.inconclusive,
        "generator_hash": cfg.text_hash,
        "labels": [p["x0"], p["v0"]],
    }
    ws.write_json("galilei_compare", payload)
    verdict = "inconclusive" if rep.inconclusive else ("pass" if rep.passed else "fail")
    ws.record.add_metric("deviation_coarse", rep.deviation_coarse, verdict=verdict)


def _run_covariance_check(cfg: RunConfig, ws: _Workspace) -> None:
    from .galilean import GalileanGenerator, galilean_covariance_check

    p = cfg.params["galilei"]
    gen = GalileanGenerator(cfg.params["triplet2"], include_free_hamiltonian=p["free"])
    defect = galilean_covariance_check(
        gen, p["x"], p["v"], p["t"], cfg.params["state"], cfg.params["mc"], n_steps=p["n_steps"]
    )
    ws.write_json("covariance_check", {"defect": defect, "x": p["x"], "v": p["v"], "t": p["t"]})
    ws.record.add_metric("defect", defect, verdict="pass" if defect <= 1e-10 else "fail")


def _run_feller_classify(cfg: RunConfig, ws: _Workspace) -> None:
    from .feller import feller_test

    report = feller_test(cfg.params["feller"])
    ws.write_json("boundary", {
        "left": report.left,
        "right": report.right,
        "diagnostics": report.diagnostics,
    })
    raw = cfg.params["feller_params"]
    verdict = None
    if raw.get("expect_left") or raw.get("expect_right"):
        ok = True
        if raw.get("expect_left"):
            ok &= report.left == raw["expect_left"]
        if raw.get("expect_right"):
            ok &= report.right == raw["expect_right"]
        verdict = "pass" if ok else "fail"
    elif "inconclusive" in (report.left, report.right):
        verdict = "inconclusive"
    ws.record.add_metric("left", report.left, verdict=verdict)
    ws.record.add_metric("right", report.right)


def _run_killed_diffusion(cfg: RunConfig, ws: _Workspace) -> None:
    from .feller import simulate_killed_diffusion, simulate_reflecting_diffusion

    p = cfg.params["kd"]
    spec = cfg.params["feller"]
    sim = simulate_reflecting_diffusion if p["reflecting"] else simulate_killed_diffusion
    curve = sim(spec, p["x_start"], p["t"], p["dt"], cfg.params["mc"])
    rows = [[t, s, se] for t, s, se in zip(curve.times, curve.survival, curve.stderr)]
    ws.write_csv("survival", ["t", "survival", "stderr"], rows)
    ws.write_json("survival", {"final": curve.final, "stderr": curve.final_stderr, "dt": p["dt"]})
    verdict = None
    if not np.isnan(p["expect"]):
        verdict = "pass" if abs(curve.final - p["expect"]) <= p["tol"] else "fail"
    ws.record.add_metric("survival", curve.final, stderr=curve.final_stderr, verdict=verdict)


RUNNERS = {
    "levy-sample": _run_levy_sample,
    "char-check": _run_char_check,
    "mc-semigroup": _run_mc_semigroup,
    "generator-check": _run_generator_check,
    "cp-suite": _run_cp_suite,
    "dyson": _run_dyson,
    "gauge-suite": _run_gauge_suite,
    "galilei-compare": _run_galilei_compare,
    "covariance-check": _run_covariance_check,
    "feller-classify": _run_feller_classify,
    "killed-diffusion": _run_killed_diffusion,
}


def run(cfg: RunConfig) -> tuple[OutputRecord, Path]:
    """Execute a validated config; returns the record and its path on disk."""
    record = OutputRecord(
        config_hash=cfg.text_hash,
        kind=cfg.kind,
        seed=cfg.seed,
        version=__version__,
        started=time.time(),
    )
    ws = _Workspace(record, cfg.out_dir, cfg.formats)
    RUNNERS[cfg.kind](cfg, ws)
    path = ws.write_record()
    return record, path
