"""Run-configuration parsing and validation.

The format is a deliberately small line-oriented grammar (documented in
``docs/config_grammar.md``): ``[section]`` headers, ``key = value`` entries,
``#`` comments.  Values are scalars, comma-separated lists, or semicolon
lists of ``location:rate`` jump atoms.  Validation follows the schema each
kind declares in ``runner.EXPERIMENTS`` and reports every problem found;
unknown sections or keys are errors, and the seed is always explicit.
Only the grammar lives here: each section's keys, and the builder of one
that becomes an object, are declared once in :mod:`levylab.runner`.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import ConfigError
from .runner import EXPERIMENTS, RANGES, RUN_FIELDS, Field, RunConfig, Section


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

def _coerce(kind: str | tuple[str, ...], raw: str, where: str, errors: list[str]):
    if isinstance(kind, tuple) and raw not in kind:  # a word key takes only its words, as written
        errors.append(f"{where}: expected one of {', '.join(map(repr, kind))}, got {raw!r}")
        return None
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
        if kind == "str" or isinstance(kind, tuple):
            return raw
        if kind == "list_float":
            return [float(p) for p in raw.split(",")]  # an empty entry, so an empty list, is an error
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


def _all_finite(value) -> bool:
    """No NaN or infinity in a coerced value: a number, a list, or jump atoms."""
    if isinstance(value, (list, tuple)):
        return all(map(_all_finite, value))
    return not isinstance(value, float) or bool(np.isfinite(value))


def _check_section(
    name: str,
    fields: dict[str, Field],
    sections: dict[str, dict[str, str]],
    errors: list[str],
) -> dict:
    """The values of ``[name]`` by ``fields``; a value that is missing, fails to parse or is not finite is ``None``."""
    raw = sections.get(name, {})
    out = {}
    for key, spec in fields.items():
        if key in raw:
            out[key] = _coerce(spec.type, raw[key], f"[{name}] {key}", errors)
        elif spec.default is None:
            errors.append(f"[{name}]: missing required key {key!r}")
            out[key] = None
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
                out[key] = None  # no builder sees it, and it is no multiple either: one error says so
                continue
        unit = out.get(spec.multiple_of) if spec.multiple_of else None
        if unit is not None and unit > 0 and not _is_multiple(value, unit):
            errors.append(f"[{name}] {key}: must be an integer multiple of {spec.multiple_of} = {unit!r}, got {value!r}")
        elif key in raw and not _all_finite(value):  # a default such as ``expect = nan`` means "none"
            errors.append(f"[{name}] {key}: must be finite, got {raw[key]}")
            out[key] = None  # no builder sees it
    return out


def parse_config(text: str, kind_override: str | None = None, overrides: dict | None = None) -> RunConfig:
    """Parse and fully validate a run configuration.

    ``overrides`` (the CLI's ``--seed``, ``--out`` and ``--threads``)
    replace keys of ``[run]`` after tokenizing and are checked like the
    file's own entries.  Raises :class:`ConfigError` carrying *all*
    problems found.  Every section is checked first; then
    each :class:`~levylab.runner.Section` is built in schema order, which
    enforces the domain invariants (nonnegative diffusion, valid grids,
    positive rates).
    """
    errors: list[str] = []
    sections = _parse_sections(text, errors)
    if overrides:
        sections.setdefault("run", {}).update({key: str(value) for key, value in overrides.items()})

    run = _check_section("run", RUN_FIELDS, sections, errors)
    kind = run.get("kind") or kind_override
    if kind_override is not None and run.get("kind") not in (None, kind_override):
        errors.append(f"[run] kind = {run.get('kind')!r} does not match the requested command {kind_override!r}")
    if kind not in EXPERIMENTS:
        errors.append(f"[run]: unknown kind {kind!r} (choose from {', '.join(EXPERIMENTS)})")
        raise ConfigError(errors)

    schema = EXPERIMENTS[kind].schema
    values = {section: _check_section(section, spec.fields if isinstance(spec, Section) else spec, sections, errors)
              for section, spec in schema.items()}
    for section in sections:
        if section != "run" and section not in schema:
            errors.append(f"unknown section [{section}] for kind {kind!r}")

    # a build whose own values, or a section it needs, failed is skipped: that error is already recorded
    ready = {name for name, vals in [("run", run), *values.items()] if None not in vals.values()}
    built: dict = {}
    for section, spec in schema.items():
        if not isinstance(spec, Section):
            built[section] = values[section]
        elif ready.issuperset((section, *spec.needs)):
            try:
                built[section] = spec.build(values[section], built, run)
            except ConfigError as exc:
                errors.extend(exc.errors)
            except ValueError as exc:
                errors.append(f"{section}: {exc}")
        if section not in built:
            ready.discard(section)
    if errors:
        raise ConfigError(errors)

    # Hash only what determines the numbers: kind, seed, and every parameter
    # entry. Presentation knobs (out, threads) must not change it.
    canonical = [f"kind={kind}", f"seed={run['seed']}"]
    for section in sorted(sections):
        for key in sorted(sections[section]):
            if section == "run" and key in ("out", "threads", "kind", "seed"):
                continue
            canonical.append(f"{section}.{key}={sections[section][key]}")
    digest = hashlib.sha256("\n".join(canonical).encode())
    return RunConfig(
        kind=kind,
        seed=run["seed"],
        out_dir=run["out"],
        threads=run["threads"],
        params=built,
        values=values,
        text_hash=digest.hexdigest(),
    )
