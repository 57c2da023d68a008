"""Run-configuration parsing and validation.

The format is a deliberately small line-oriented grammar (documented in
``docs/config_grammar.md``): ``[section]`` headers, ``key = value`` entries,
``#`` comments.  Values are scalars, comma-separated lists, or semicolon
lists of ``location:rate`` jump atoms.  Validation follows the schema each
kind declares in ``runner.EXPERIMENTS`` and reports every problem found;
unknown sections or keys are errors, and the seed is always explicit.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import ConfigError
from .grid import GridSpec, PTable, QTable, WeylLabel, gaussian_state
from .levy import JumpMeasure, LevyTriplet1D, LevyTriplet2D
from .montecarlo import MCConfig
from .runner import EXPERIMENTS, RANGES, Field, RunConfig

FORMATS = ("csv", "json", "both")


# --------------------------------------------------------------------------
# Tokenizer
# --------------------------------------------------------------------------

def _parse_sections(text: str, errors: list[str]) -> dict[str, dict[str, str]]:
    sections: dict[str, dict[str, str]] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if not current:
                errors.append(f"line {lineno}: empty section name")
                current = None
            elif current in sections:
                errors.append(f"line {lineno}: duplicate section [{current}]")
            else:
                sections[current] = {}
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected 'key = value', got {line!r}")
            continue
        if current is None:
            errors.append(f"line {lineno}: entry outside any [section]")
            continue
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            errors.append(f"line {lineno}: empty key")
        elif key in sections[current]:
            errors.append(f"line {lineno}: duplicate key {key!r} in [{current}]")
        else:
            sections[current][key] = value
    return sections


# --------------------------------------------------------------------------
# Field coercion
# --------------------------------------------------------------------------

def _coerce(kind: str, raw: str, where: str, errors: list[str]):
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            low = raw.lower()
            if low in ("true", "yes", "on", "1"):
                return True
            if low in ("false", "no", "off", "0"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if kind == "str":
            return raw
        if kind == "list_float":
            return [float(p) for p in raw.split(",") if p.strip()]
        if kind in ("atoms1d", "atoms2d"):
            atoms = []
            for part in filter(None, (part.strip() for part in raw.split(";"))):
                loc, rate = part.split(":")
                if kind == "atoms2d":
                    x, v = loc.split(",")
                    atoms.append(((float(x), float(v)), float(rate)))
                else:
                    atoms.append((float(loc), float(rate)))
            return tuple(atoms)
        raise AssertionError(kind)
    except (ValueError, IndexError) as exc:
        errors.append(f"{where}: cannot parse as {kind}: {exc}")
        return None


def _is_multiple(value: float, unit: float) -> bool:
    """``value`` is an integer multiple of ``unit`` to relative precision 1e-9.

    A non-finite quotient (a NaN or infinite ``value``) is no multiple.
    """
    steps = value / unit
    if not np.isfinite(steps):
        return False
    return abs(round(steps) * unit - value) <= 1e-9 * max(abs(value), 1.0)


_RUN_FIELDS = {
    "kind": Field("str", required=True),
    "seed": Field("int", required=True, range="in [0, 2**64)"),
    "out": Field("str", default="."),
    "format": Field("str", default="both"),
    "threads": Field("int", default=1, range="positive"),
}

OBSERVABLE_FUNCS = {
    "cos": lambda s: (lambda x: np.cos(s * x)),
    "bump": lambda s: (lambda x: np.exp(-0.5 * (s * x) ** 2)),
    "step": lambda s: (lambda x: np.tanh(s * x)),
    "one": lambda s: (lambda x: np.ones_like(np.asarray(x, dtype=float))),
}


def _check_section(
    name: str,
    fields: dict[str, Field],
    sections: dict[str, dict[str, str]],
    errors: list[str],
) -> dict:
    raw = sections.get(name, {})
    out = {}
    for key, spec in fields.items():
        if key in raw:
            out[key] = _coerce(spec.type, raw[key], f"[{name}] {key}", errors)
        elif spec.required:
            errors.append(f"[{name}]: missing required key {key!r}")
        else:
            out[key] = spec.default
    for key in raw:
        if key not in fields:
            errors.append(f"[{name}]: unknown key {key!r}")
    for key, spec in fields.items():
        value = out.get(key)
        if value is None:
            continue
        if spec.range is not None:
            if not all(map(RANGES[spec.range], value if isinstance(value, list) else [value])):
                errors.append(f"[{name}] {key}: must be {spec.range}, got {raw.get(key, value)}")
        unit = out.get(spec.multiple_of) if spec.multiple_of else None
        if unit is not None and unit > 0 and not _is_multiple(value, unit):
            errors.append(f"[{name}] {key}: must be an integer multiple of {spec.multiple_of} = {unit!r}, got {value!r}")
    return out


def _test_function(section: str, params: dict, errors: list[str]):
    """The function ``func`` at ``scale`` named in ``[section]``; ``None`` after recording an unknown name."""
    if params["func"] not in OBSERVABLE_FUNCS:
        errors.append(f"[{section}]: unknown func {params['func']!r} (choose from {sorted(OBSERVABLE_FUNCS)})")
        return None
    return OBSERVABLE_FUNCS[params["func"]](params["scale"])


def _build_observable(params: dict, grid: GridSpec, errors: list[str]):
    kind = params["kind"]
    if kind == "weyl":
        return WeylLabel(params["x"], params["v"])
    fn = _test_function("observable", params, errors)
    if fn is None:
        return None
    label = f"{params['func']}({params['scale']:g})"
    if kind == "qtable":
        return QTable.from_function(grid, fn, label=f"{label}(Q)")
    if kind == "ptable":
        return PTable.from_function(grid, fn, label=f"{label}(P)")
    errors.append(f"[observable]: unknown kind {kind!r} (qtable, ptable or weyl)")
    return None


def parse_config(text: str, kind_override: str | None = None, overrides: dict | None = None) -> RunConfig:
    """Parse and fully validate a run configuration.

    ``overrides`` (the CLI's ``--seed``, ``--out``, ``--threads``,
    ``--format``) replace keys of ``[run]`` after tokenizing and are
    checked like the file's own entries.  Raises :class:`ConfigError`
    carrying *all* problems found.  Domain invariants (nonnegative
    diffusion, valid grids, positive rates) are enforced by constructing
    the actual objects here.
    """
    errors: list[str] = []
    sections = _parse_sections(text, errors)
    if overrides:
        sections.setdefault("run", {}).update({key: str(value) for key, value in overrides.items()})

    run = _check_section("run", _RUN_FIELDS, sections, errors)
    kind = run.get("kind") or kind_override
    if kind_override is not None and run.get("kind") not in (None, kind_override):
        errors.append(f"[run] kind = {run.get('kind')!r} does not match the requested command {kind_override!r}")
    if kind not in EXPERIMENTS:
        errors.append(f"[run]: unknown kind {kind!r} (choose from {', '.join(EXPERIMENTS)})")
        raise ConfigError(errors)
    if run.get("format") not in FORMATS:
        errors.append(f"[run]: format must be one of {FORMATS}, got {run.get('format')!r}")

    schema = EXPERIMENTS[kind].schema
    params: dict = {}
    for section, fields in schema.items():
        params[section] = _check_section(section, fields, sections, errors)
    for section in sections:
        if section != "run" and section not in schema:
            errors.append(f"unknown section [{section}] for kind {kind!r}")

    built: dict = {}
    if isinstance(run.get("seed"), int):
        try_build(kind, params, built, errors, run)
    if errors:
        raise ConfigError(errors)

    # Hash only what determines the numbers: kind, seed, and every parameter
    # entry. Presentation knobs (out, format, threads) must not change it.
    canonical = [f"kind={kind}", f"seed={run['seed']}"]
    for section in sorted(sections):
        for key in sorted(sections[section]):
            if section == "run" and key in ("out", "format", "threads", "kind", "seed"):
                continue
            canonical.append(f"{section}.{key}={sections[section][key]}")
    digest = hashlib.sha256("\n".join(canonical).encode())
    return RunConfig(
        kind=kind,
        seed=run["seed"],
        out_dir=run["out"],
        formats=run["format"],
        threads=run["threads"],
        params=built,
        text_hash=digest.hexdigest(),
    )


def try_build(kind: str, params: dict, built: dict, errors: list[str], run: dict) -> None:
    """Construct domain objects, folding their invariant errors into the list."""

    def attempt(label, fn):
        try:
            built[label] = fn()
        except ValueError as exc:
            errors.append(f"{label}: {exc}")
        except TypeError:
            pass  # a field failed coercion; that error is already recorded

    if "triplet" in params:
        p = params["triplet"]
        attempt("triplet", lambda: LevyTriplet1D(
            beta=p["beta"], alpha=p["alpha"], jumps=JumpMeasure(atoms=p["atoms"]), h=p["h"]
        ))
    if "triplet2" in params:
        p = params["triplet2"]
        a = p["alpha"]
        if len(a) != 3:
            errors.append("[triplet2] alpha: expected three entries a_pp, a_pq, a_qq")
        else:
            attempt("triplet2", lambda: LevyTriplet2D(
                beta_p=p["beta_p"], beta_q=p["beta_q"],
                alpha=((a[0], a[1]), (a[1], a[2])),
                jumps=JumpMeasure(atoms=p["atoms"]), h=p["h"],
            ))
    if "grid" in params:
        p = params["grid"]
        attempt("grid", lambda: GridSpec(n_points=p["n"], x_min=p["x_min"], dx=p["dx"]))
    if "state" in params and "grid" in built:
        p = params["state"]
        attempt("state", lambda: gaussian_state(built["grid"], p["center"], p["width"], p["momentum"]))
    if "mc" in params:
        p = params["mc"]
        anti = {"auto": "auto", "true": True, "false": False}.get(str(p["antithetic"]).lower())
        if anti is None:
            errors.append("[mc] antithetic: expected auto, true or false")
        else:
            attempt("mc", lambda: MCConfig(
                n_paths=p["n_paths"], seed=run["seed"], antithetic=anti, threads=run["threads"]
            ))
    if "observable" in params and "grid" in built:
        attempt("observable", lambda: _build_observable(params["observable"], built["grid"], errors))
    if "genchk" in params:
        attempt("genchk_func", lambda: _test_function("genchk", params["genchk"], errors))
    if "feller" in params:
        from .feller import CANONICAL_DRIFTS, DriftSpec

        p = params["feller"]
        built["feller_params"] = p
        name = p["drift"]
        if name in CANONICAL_DRIFTS:
            attempt("feller", lambda: CANONICAL_DRIFTS[name](l=p["l"], x0=p["x0"]))
        elif name == "linear":
            c = p["coefficient"]
            attempt("feller", lambda: DriftSpec(
                l=p["l"], drift=lambda x: c * np.ones_like(np.asarray(x, dtype=float)), x0=p["x0"]
            ))
        else:
            errors.append(f"[feller] drift: unknown drift {name!r} (zero, bessel3, ou, linear)")
        for key in ("expect_left", "expect_right"):
            if key in p and p[key] and p[key] not in ("absorbing", "non-absorbing", "inconclusive"):
                errors.append(f"[feller] {key}: invalid verdict {p[key]!r}")
    for section in params:
        if section not in ("triplet", "triplet2", "grid", "state", "mc", "observable", "feller"):
            built[section] = params[section]
