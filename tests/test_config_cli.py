"""Config grammar, validation discipline, CLI contract."""

import dataclasses
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from levylab import rng
from levylab.cli import main
from levylab.config import _check_section, parse_config
from levylab.errors import ConfigError
from levylab.feller import DriftSpec
from levylab.grid import GridSpec, PTable, QTable, WaveFunction, WeylLabel, expectation
from levylab.levy import LevyTriplet1D, LevyTriplet2D, char_exponent_1d
from levylab.montecarlo import MCConfig, gate
from levylab.runner import EXPERIMENTS, RUN_FIELDS, Field, Metric, Output, Result, Section
from make_golden_manifests import config_text

MINIMAL_CHAR = """
[run]
kind = char-check
seed = 42

[triplet]
alpha = 1.0

[check]
args = 0.5, 1.0
n_samples = 2000
"""


class TestParsing:
    def test_minimal_config(self):
        cfg = parse_config(MINIMAL_CHAR)
        assert cfg.kind == "char-check" and cfg.seed == 42
        assert cfg.params["triplet"].alpha == 1.0
        assert cfg.params["triplet"].h == 1.0  # documented default

    def test_missing_seed_named(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[run]\nkind = char-check\n[check]\nargs = 1.0\n")
        assert any("seed" in e for e in err.value.errors)

    def test_invariant_violation_cited(self):
        text = MINIMAL_CHAR.replace("alpha = 1.0", "alpha = -1.0")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert any("alpha must be nonnegative" in e for e in err.value.errors)

    def test_all_errors_reported_not_first_only(self):
        text = """
[run]
kind = char-check
[triplet]
alpha = oops
mystery = 1
[check]
args = 1.0
[extra]
x = 2
"""
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        joined = "\n".join(err.value.errors)
        assert "seed" in joined and "mystery" in joined and "[extra]" in joined and "cannot parse" in joined

    def test_unknown_key_is_error(self):
        text = MINIMAL_CHAR + "\n[triplet2]\nbeta_p = 1\n"
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config(text)

    def test_duplicate_key_rejected(self):
        bad = MINIMAL_CHAR.replace("[check]", "[check]\nargs = 9.0")
        with pytest.raises(ConfigError, match="duplicate key"):
            parse_config(bad)

    def test_atoms_syntax(self):
        cfg = parse_config(MINIMAL_CHAR.replace("alpha = 1.0", "atoms = 1.5:0.3; -2.0:0.1"))
        assert cfg.params["triplet"].jumps.atoms == ((1.5, 0.3), (-2.0, 0.1))

    def test_kind_override_mismatch(self):
        with pytest.raises(ConfigError, match="does not match"):
            parse_config(MINIMAL_CHAR, kind_override="dyson")

    RANGE_CASES = [
        ("char_check_gauss.cfg", "n_samples", "0", "[check] n_samples: must be positive"),
        ("galilei_gauss.cfg", "n_steps", "0", "[galilei] n_steps: must be positive"),
        ("mc_semigroup_mixed.cfg", "t", "-1", "[semigroup] t: must be nonnegative"),
        ("mc_semigroup_mixed.cfg", "t", "0.5, -0.25", "[semigroup] t: must be nonnegative"),
        ("killed_bm.cfg", "dt", "0.003", "[kd] t: must be an integer multiple of dt"),
        ("killed_bm.cfg", "t", "nan", "[kd] t: must be nonnegative"),
        ("killed_bm.cfg", "t", "-inf", "[kd] t: must be nonnegative"),
        ("killed_bm.cfg", "t", "inf", "[kd] t: must be an integer multiple of dt"),
        ("cp_suite.cfg", "count", "0", "[suite] count: must be positive"),
        ("cp_suite.cfg", "count", "-1", "[suite] count: must be positive"),
        ("cp_suite.cfg", "times", "-1.0", "[suite] times: must be nonnegative"),
        ("cp_suite.cfg", "max_jumps", "0", "[suite] max_jumps: must be positive"),
        ("cp_suite.cfg", "max_dim", "1", "[suite] max_dim: must be at least 2"),
        ("gauge_suite.cfg", "count", "0", "[suite] count: must be positive"),
        ("gauge_suite.cfg", "d", "0", "[suite] d: must be positive"),
        ("gauge_suite.cfg", "m", "0", "[suite] m: must be positive"),
        ("dyson.cfg", "gamma", "-1", "[dyson] gamma: must be nonnegative"),
        ("dyson.cfg", "n_terms", "-1", "[dyson] n_terms: must be nonnegative"),
        ("generator_check.cfg", "func", "nope", "[genchk] func: expected one of 'cos', 'bump', 'step', 'one', got 'nope'"),
        ("mc_semigroup_mixed.cfg", "scale", "abc", "[observable] scale: cannot parse as float"),
        ("galilei_gauss.cfg", "t", "-1", "[galilei] t: must be nonnegative"),
        ("covariance_check.cfg", "t", "-1", "[galilei] t: must be nonnegative"),
        ("mc_semigroup_mixed.cfg", "beta", "nan", "[triplet] beta: must be finite, got nan"),
        ("char_check_gauss.cfg", "alpha", "inf", "[triplet] alpha: must be finite, got inf"),
        ("dyson.cfg", "t", "nan", "[dyson] t: must be nonnegative, got nan"),
        ("dyson.cfg", "t", "-5.0", "[dyson] t: must be nonnegative"),
        ("galilei_gauss.cfg", "alpha", "1.0, nan, 0.5", "[triplet2] alpha: must be finite, got 1.0, nan, 0.5"),
        ("mc_semigroup_mixed.cfg", "atoms", "0.5:1.0; -2.0:-inf", "[triplet] atoms: must be finite"),
        ("mc_semigroup_mixed.cfg", "width", "0", "[state] width: must be positive, got 0"),
        ("mc_semigroup_mixed.cfg", "width", "-1.5", "[state] width: must be positive"),
        ("killed_bm.cfg", "tol", "-0.5", "[kd] tol: must be nonnegative"),
        ("char_check_gauss.cfg", "sigmas", "-1", "[check] sigmas: must be positive"),
        ("char_check_gauss.cfg", "sigmas", "0", "[check] sigmas: must be positive"),
        ("killed_bm.cfg", "n_paths", "0", "[mc] n_paths: must be positive, got 0"),
    ]

    # the IDs name the file, key and value, so that rewording a message renames no test
    @pytest.mark.parametrize("name,key,bad,message", RANGE_CASES,
                             ids=[f"{name}-{key}={bad}" for name, key, bad, _ in RANGE_CASES])
    def test_declared_ranges(self, name, key, bad, message):
        text = (REPO / "configs" / name).read_text()
        if key == "width":  # no sample config sets a [state] key, so the case adds the section
            text += "\n[state]\nwidth = 1.0\n"
        if key == "sigmas":  # the sample config leaves it at its default; [check] is its last section
            text += "\nsigmas = 4.0\n"
        with pytest.raises(ConfigError) as exc:
            parse_config(replace_key(text, key, bad))
        assert [e for e in exc.value.errors if e.startswith(message)]
        if message.startswith("[kd] t:"):  # a range error is not followed by a multiple-of error
            assert len([e for e in exc.value.errors if e.startswith("[kd] t:")]) == 1

    MESSAGE_CASES = [
        (None, "[run]", "x = 1\n[run]", "line 2: entry outside any [section]"),
        (None, "[triplet]", "[ ]\n[triplet]", "line 6: empty section name"),
        (None, "[check]", "[run]\n[check]", "line 9: duplicate section [run]"),
        (None, "[check]", "garbage\n[check]", "line 9: expected 'key = value', got 'garbage'"),
        (None, "[check]", "= 3\n[check]", "line 9: empty key"),
        ("galilei_gauss.cfg", "n_steps = 32", "n_steps = 32\nfree = maybe",
         "[galilei] free: cannot parse as bool: not a boolean: 'maybe'"),
        ("galilei_gauss.cfg", "alpha = 1.0, 0.3, 0.5", "alpha = 1.0, 0.3",
         "[triplet2] alpha: expected three entries a_pp, a_pq, a_qq"),
        ("mc_semigroup_mixed.cfg", "n_paths = 20000", "n_paths = 20000\nantithetic = maybe",
         "[mc] antithetic: expected one of 'auto', 'true', 'false', got 'maybe'"),
        ("killed_bm.cfg", "n_paths = 100000", "n_paths = 100000\nantithetic = true", "[mc]: unknown key 'antithetic'"),
        ("mc_semigroup_mixed.cfg", "kind = qtable", "kind = nope",
         "[observable] kind: expected one of 'qtable', 'ptable', 'weyl', got 'nope'"),
        ("feller_zero.cfg", "drift = zero", "drift = nope", "feller: unknown drift 'nope' (zero, bessel3, ou, linear)"),
        ("feller_zero.cfg", "expect_left = absorbing", "expect_left = maybe",
         "[feller] expect_left: expected one of '', 'absorbing', 'non-absorbing', got 'maybe'"),
        ("killed_bm.cfg", "seed = 7", "seed = 7\nformat = csv", "[run]: unknown key 'format'"),
        ("killed_bm.cfg", "tol = 0.01", "tol = 0.01\nreflecting = true", "[kd]: unknown key 'reflecting'"),
    ]

    # the IDs name the file and the line the edit writes, not the expected message
    @pytest.mark.parametrize("name,old,new,message", MESSAGE_CASES,
                             ids=[f"{name or 'minimal'}-{next(line for line in new.splitlines() if line != old)}"
                                  for name, old, new, _ in MESSAGE_CASES])
    def test_error_messages(self, name, old, new, message):
        # ``name`` None edits MINIMAL_CHAR, whose line numbers the messages cite
        text = MINIMAL_CHAR if name is None else (REPO / "configs" / name).read_text()
        assert old in text
        with pytest.raises(ConfigError) as exc:
            parse_config(text.replace(old, new, 1))
        assert message in exc.value.errors

    def test_word_field_accepts_exactly_its_words(self):
        # the tuple type is the list of words, matched as written; anything else is one message
        fields = {"w": Field(("a", "b-c", ""))}
        for word in ("a", "b-c", ""):
            errors = []
            assert _check_section("s", fields, {"s": {"w": word}}, errors) == {"w": word} and errors == []
        for bad in ("A", "b", "a ", "nope"):
            errors = []
            assert _check_section("s", fields, {"s": {"w": bad}}, errors) == {"w": None}
            assert errors == [f"[s] w: expected one of 'a', 'b-c', '', got {bad!r}"]

    @pytest.mark.parametrize("word,value", [("yes", True), ("on", True), ("1", True), ("off", False)])
    def test_boolean_words(self, word, value):
        text = (REPO / "configs" / "galilei_gauss.cfg").read_text().replace("n_steps = 32", f"n_steps = 32\nfree = {word}")
        assert parse_config(text).params["galilei"]["free"] is value

    def test_linear_drift(self):
        text = (REPO / "configs" / "feller_zero.cfg").read_text().replace("drift = zero", "drift = linear\ncoefficient = 0.5")
        spec = parse_config(text).params["feller"]
        assert spec.drift(np.array([0.5, 2.0])).tolist() == [0.5, 0.5]

    def test_range_boundaries_accepted(self):
        text = (REPO / "configs" / "mc_semigroup_mixed.cfg").read_text()
        assert parse_config(replace_key(text, "t", "0, 1.5")).params["semigroup"]["t"] == [0.0, 1.5]
        kd = (REPO / "configs" / "killed_bm.cfg").read_text()
        assert parse_config(replace_key(kd, "dt", "0.0025")).params["kd"]["dt"] == 0.0025
        suite = parse_config(replace_key(replace_key((REPO / "configs" / "cp_suite.cfg").read_text(),
                                                     "times", "0, 1"), "max_dim", "2")).params["suite"]
        assert suite["times"] == [0.0, 1.0] and suite["max_dim"] == 2


REPO = Path(__file__).resolve().parent.parent


def _sections(schema: dict) -> dict:
    """Each section of an experiment's schema as its dict of ``Field``s."""
    return {name: spec.fields if isinstance(spec, Section) else spec for name, spec in schema.items()}


#: Every key whose ``Field`` type is a tuple of words, by ``(kind, section, key)``.
WORD_KEYS = {(kind, section, key): spec.type for kind, exp in EXPERIMENTS.items()
             for section, fields in _sections(exp.schema).items()
             for key, spec in fields.items() if isinstance(spec.type, tuple)}


def set_key(text: str, section: str, key: str, value: str) -> str:
    """``text`` with ``key = value`` in ``[section]`` only, right after its header, and no other ``key`` line there."""
    out, current = [], None
    for line in text.splitlines():
        entry = line.split("#", 1)[0].strip()
        if entry.startswith("["):
            current = entry[1:-1].strip()
        elif current == section and entry.split("=")[0].strip() == key:
            continue
        out.append(line)
        if entry == f"[{section}]":
            out.append(f"{key} = {value}")
    return "\n".join(out) + "\n"


@pytest.mark.parametrize("kind,section,key", sorted(WORD_KEYS))
def test_word_keys_take_their_words_only(kind, section, key):
    words = WORD_KEYS[kind, section, key]
    text = next(t for t in map(Path.read_text, (REPO / "configs").glob("*.cfg")) if f"kind = {kind}\n" in t)
    for word in words:
        assert parse_config(set_key(text, section, key, word)).values[section][key] == word
    bad = next(filter(None, words)).upper()
    with pytest.raises(ConfigError) as exc:
        parse_config(set_key(text, section, key, bad))
    listed = ", ".join(map(repr, words))
    assert exc.value.errors == [f"[{section}] {key}: expected one of {listed}, got {bad!r}"]


def test_six_word_keys():
    # antithetic, the observable's kind, func of [observable] and [genchk], and the expected verdicts
    assert sorted(WORD_KEYS) == [("feller-classify", "feller", "expect_left"), ("feller-classify", "feller", "expect_right"),
                                 ("generator-check", "genchk", "func"), ("mc-semigroup", "mc", "antithetic"),
                                 ("mc-semigroup", "observable", "func"), ("mc-semigroup", "observable", "kind")]


GRAMMAR = REPO / "docs" / "config_grammar.md"
#: One key of a keys cell of the grammar's table of kinds: ``key``, or ``key`` and its words in parentheses.
_DOC_KEY = r"`(\w+)`(?: \(([^()]*)\))?"


def _table(text: str, after: str) -> list[list[str]]:
    """The cells of each body row of the first Markdown table after the line ``after``."""
    lines = text[text.index(after + "\n"):].splitlines()[1:]
    start = next(i for i, line in enumerate(lines) if line.startswith("|"))
    rows = []
    for line in lines[start + 2:]:  # the header row and its separator
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip().strip("|").split("|")])
    return rows


def _doc_word(word: str) -> str:
    assert word == "empty" or re.fullmatch(r"`[\w-]+`", word), f"not a word: {word!r}"
    return "" if word == "empty" else word.strip("`")


def doc_schema(text: str) -> tuple[dict, dict]:
    """What ``docs/config_grammar.md`` declares: whether each ``[run]`` key is required, and each kind's keys and words."""
    run = {row[0].strip("`"): row[2] == "required" for row in _table(text, "`[run]` (always):")}
    kinds: dict = {}
    kind = None
    for kind_cell, section, keys in _table(text, "## Experiment kinds"):
        kind = kind_cell.strip("`") or kind
        assert re.fullmatch(rf"{_DOC_KEY}(, {_DOC_KEY})*", keys), f"{kind} {section}: {keys!r}"
        kinds.setdefault(kind, {})[section.strip("`[]")] = {
            key: tuple(map(_doc_word, words.split("/"))) if words else None for key, words in re.findall(_DOC_KEY, keys)}
    return run, kinds


def registry_schema() -> tuple[dict, dict]:
    """The same two tables from ``runner``: ``[run]`` keys without a default, and every kind's keys with their words."""
    run = {key: spec.default is None for key, spec in RUN_FIELDS.items()}
    kinds = {kind: {section: {key: spec.type if isinstance(spec.type, tuple) else None for key, spec in fields.items()}
                    for section, fields in _sections(exp.schema).items()} for kind, exp in EXPERIMENTS.items()}
    return run, kinds


def test_docs_list_every_key_of_the_registry():
    # both ways: a key or word the registry declares and the docs omit fails, and so does one they invent
    assert doc_schema(GRAMMAR.read_text()) == registry_schema()


@pytest.mark.parametrize("old,new", [
    ("`n_samples`, ", ""),  # a key dropped
    ("`n_terms` |", "`n_terms`, `order` |"),  # a key invented
    ("`auto`/`true`/`false`", "`auto`/`true`"),  # a word dropped
    ("| `threads` | int | `1` | worker threads (never changes results) |\n", ""),  # a [run] key dropped
    ("| `out` | word | `.` |", "| `out` | word | required |"),  # a default dropped
])
def test_docs_check_sees_a_changed_table(old, new):
    text = GRAMMAR.read_text()
    assert old in text
    assert doc_schema(text.replace(old, new, 1)) != registry_schema()


def test_one_list_of_kinds():
    # the CLI's first argument names a kind of the registry
    from levylab.cli import build_parser

    kind = next(a for a in build_parser()._actions if a.dest == "kind")
    assert not kind.option_strings and kind.choices == list(EXPERIMENTS)


def test_every_kind_has_a_sample_config():
    assert sorted(parse_config(p.read_text()).kind for p in (REPO / "configs").glob("*.cfg")) == sorted(EXPERIMENTS)


#: The object each built section becomes; a plain section stays its checked values.
BUILT_TYPES = {
    "triplet": LevyTriplet1D,
    "triplet2": LevyTriplet2D,
    "grid": GridSpec,
    "state": WaveFunction,
    "mc": MCConfig,
    "observable": (QTable, PTable, WeylLabel),
    "feller": DriftSpec,
}


@pytest.mark.parametrize("path", sorted((REPO / "configs").glob("*.cfg")), ids=lambda p: p.name)
def test_params_hold_one_entry_per_schema_section(path):
    cfg = parse_config(path.read_text())
    assert list(cfg.params) == list(EXPERIMENTS[cfg.kind].schema) == list(cfg.values)
    for section, value in cfg.params.items():
        assert isinstance(value, BUILT_TYPES.get(section, dict)), section
    if "genchk" in cfg.params:
        assert callable(cfg.params["genchk"]["func"])


GALILEI_SMALL = """
[run]
kind = galilei-compare
seed = 9
[triplet2]
alpha = 1.0, 0.0, 0.0
[grid]
n = 256
x_min = -20.0
dx = 0.15625
[mc]
n_paths = 400
[galilei]
x0 = 0.0
v0 = 1.0
t = 0.5
n_steps = 8
"""


def replace_key(text: str, key: str, value: str) -> str:
    """``text`` with every ``key = ...`` line set to ``key = value``."""
    return "\n".join(f"{key} = {value}" if line.split("=")[0].strip() == key else line
                     for line in text.splitlines())


def write_config(tmp_path: Path, text: str) -> str:
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


COVARIANCE = """
[run]
kind = covariance-check
seed = 10
[triplet2]
alpha = 1.0, 0.0, 0.5
[grid]
n = 256
x_min = -20.0
dx = 0.15625
[mc]
n_paths = 200
[galilei]
x = 0.5
v = 0.6
t = 0.4
n_steps = 8
"""


class TestCLI:
    def test_char_check_pass(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MINIMAL_CHAR)
        code = main(["char-check", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "pass"
        assert (tmp_path / "out" / "char_check.csv").exists()
        record = json.loads((tmp_path / "out" / "record.json").read_text())
        assert set(record["manifest"]) == {"char_check.csv", "char_check.json"}

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[run]\nkind = char-check\n")
        assert main(["char-check", "--config", cfg]) == 2

    def test_missing_file_exit_code(self):
        assert main(["char-check", "--config", "/nonexistent.cfg"]) == 2

    def test_seed_override_changes_hash(self, tmp_path):
        cfg = write_config(tmp_path, MINIMAL_CHAR)
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["char-check", "--config", cfg, "--out", out1]) == 0
        assert main(["char-check", "--config", cfg, "--out", out2, "--seed", "43"]) == 0
        rec1 = json.loads((Path(out1) / "record.json").read_text())
        rec2 = json.loads((Path(out2) / "record.json").read_text())
        assert rec1["config_hash"] != rec2["config_hash"]
        assert rec2["seed"] == 43

    def test_reruns_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, MINIMAL_CHAR)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["char-check", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["char-check", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "char_check.csv").read_bytes() == (out2 / "char_check.csv").read_bytes()
        assert (out1 / "char_check.json").read_bytes() == (out2 / "char_check.json").read_bytes()

    def test_manifest_hashes_content(self, tmp_path):
        import hashlib

        cfg = write_config(tmp_path, MINIMAL_CHAR)
        out = tmp_path / "out"
        main(["char-check", "--config", cfg, "--out", str(out)])
        record = json.loads((out / "record.json").read_text())
        for name, digest in record["manifest"].items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest

    def test_feller_classify_verdict(self, tmp_path, capsys):
        cfg = write_config(tmp_path, """
[run]
kind = feller-classify
seed = 1
[feller]
drift = zero
expect_left = absorbing
expect_right = non-absorbing
""")
        assert main(["feller-classify", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metrics"]["left"]["value"] == "absorbing"

    def test_failed_verdict_nonzero_exit(self, tmp_path):
        cfg = write_config(tmp_path, """
[run]
kind = feller-classify
seed = 1
[feller]
drift = zero
expect_left = non-absorbing
""")
        assert main(["feller-classify", "--config", cfg, "--out", str(tmp_path / "o")]) == 1

    def test_dyson_runner(self, tmp_path, capsys):
        cfg = write_config(tmp_path, """
[run]
kind = dyson
seed = 3
[dyson]
t = 1.0
n_terms = 12
""")
        assert main(["dyson", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metrics"]["final_error"]["value"] < 1e-6

    def test_gauge_suite_runner(self, tmp_path):
        cfg = write_config(tmp_path, """
[run]
kind = gauge-suite
seed = 5
[suite]
count = 5
""")
        assert main(["gauge-suite", "--config", cfg, "--out", str(tmp_path / "o")]) == 0

    def test_gauge_suite_action_check_bites(self, tmp_path, monkeypatch):
        # a gauge transformation that drops the |a|^2/2 term of K' shifts the action by
        # |a|^2 X, which the superoperator comparison must see; the group law check is
        # stubbed out, since it would feed a broken K' back to the dissipativity test
        from levylab import generators

        apply_gauge = generators.apply_gauge

        def broken(gen, g):
            out = apply_gauge(gen, g)
            K = out.K - 0.5 * float(np.vdot(g.a, g.a).real) * np.eye(gen.dim)
            return generators.StandardGenerator(jump_ops=out.jump_ops, K=K, unital=out.unital)

        monkeypatch.setattr(generators, "apply_gauge", broken)
        monkeypatch.setattr(generators, "gauge_group_law_check", lambda g1, g2, gen: 0.0)
        cfg = write_config(tmp_path, "[run]\nkind = gauge-suite\nseed = 5\n[suite]\ncount = 5\n")
        assert main(["gauge-suite", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        metrics = json.loads((tmp_path / "o" / "record.json").read_text())["metrics"]
        assert metrics["worst_action_defect"]["value"] > 1e-10
        assert metrics["worst_action_defect"]["verdict"] == "fail"
        assert metrics["worst_group_law_defect"] == {"value": 0.0, "verdict": "pass"}

    def test_feller_classify_blames_the_side_it_concerns(self, tmp_path):
        # the left boundary matches its expectation, the swapped right one does not
        text = (REPO / "configs" / "feller_zero.cfg").read_text()
        cfg = write_config(tmp_path, replace_key(text, "expect_right", "absorbing"))
        assert main(["feller-classify", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        metrics = json.loads((tmp_path / "o" / "record.json").read_text())["metrics"]
        assert metrics["left"] == {"value": "absorbing", "verdict": "pass"}
        assert metrics["right"] == {"value": "non-absorbing", "verdict": "fail"}

    def test_cp_suite_transpose_check_has_its_own_verdict(self, tmp_path, monkeypatch):
        # a CP test that calls the transpose completely positive fails the witness alone
        from levylab import generators

        monkeypatch.setattr(generators, "is_completely_positive", lambda C: (True, 0.0))
        cfg = write_config(tmp_path, "[run]\nkind = cp-suite\nseed = 1\n[suite]\ncount = 4\n")
        assert main(["cp-suite", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        metrics = json.loads((tmp_path / "o" / "record.json").read_text())["metrics"]
        assert metrics["transpose_witness"] == {"value": 0.0, "verdict": "fail"}
        assert metrics["suite"] == {"value": 4, "verdict": "pass"}

    def test_galilei_compare_judges_each_band_on_its_own_metric(self, tmp_path, monkeypatch):
        # a fine run pushed past its band fails deviation_fine and leaves deviation_coarse passing
        from levylab import galilean

        compare = galilean.mc_vs_closed_form

        def off_fine(*args):
            rep = compare(*args)
            dev = 2.0 * rep.gate_fine.band
            pushed = gate(dev, rep.mc_fine.stderr, 0.0, rep.gate_fine.band)
            return dataclasses.replace(rep, deviation_fine=dev, gate_fine=pushed)

        monkeypatch.setattr(galilean, "mc_vs_closed_form", off_fine)
        cfg = write_config(tmp_path, GALILEI_SMALL)
        assert main(["galilei-compare", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        metrics = json.loads((tmp_path / "o" / "record.json").read_text())["metrics"]
        assert metrics["deviation_coarse"]["verdict"] == "pass"
        assert metrics["deviation_fine"]["verdict"] == "fail"

    def test_cp_suite_runner(self, tmp_path):
        # rows against a reference loop over black-box maps: one exponential
        # and one Choi assembly by map calls per time, judged by the one CP
        # rule (a time that passes it records 0.0, one that fails its smallest
        # eigenvalue), the conditional CP test on the Choi matrix assembled from
        # apply_generator, and a separate t = 1 exponential for the identity
        # check (the times here leave t = 1 out); at dimensions up to 6 the
        # byte budget splits the (dim, jumps) groups into batches
        from levylab.generators import exact_evolve, is_conditionally_cp, random_standard_generator, superop_matrix, vec
        from oracles import apply_generator, choi_of_map, map_is_completely_positive, unvec
        from levylab.runner import _fmt

        cfg = write_config(tmp_path, """
[run]
kind = cp-suite
seed = 3
[suite]
count = 40
max_dim = 6
max_jumps = 3
times = 0, 0.1, 2.5
""")
        out = tmp_path / "o"
        assert main(["cp-suite", "--config", cfg, "--out", str(out)]) == 0
        gen0 = rng.stream(3, "cp-suite.shapes")
        lines = ["index,dim,jumps,unital,conditionally_cp,choi_min_eig,preserves_identity,pass"]
        for i in range(40):
            d = int(gen0.integers(2, 7))
            m = int(gen0.integers(1, 4))
            unital = bool(gen0.integers(0, 2))
            g = random_standard_generator(d, m, 3, unital=unital, tag="cp-suite.generator", index=i)
            ccp = is_conditionally_cp(choi_of_map(lambda X: apply_generator(g, X), d))
            cp, worst = True, 0.0
            for t in (0.0, 0.1, 2.5):
                E = exact_evolve(superop_matrix(g), t)
                ok_t, witness = map_is_completely_positive(lambda X: unvec(E @ vec(X)), d)
                cp, worst = cp and ok_t, min(worst, 0.0 if ok_t else witness)
            preserves = None  # the identity check is made for unital generators only
            if g.unital:
                E = exact_evolve(superop_matrix(g), 1.0)
                preserves = bool(np.abs(unvec(E @ vec(np.eye(d))) - np.eye(d)).max() <= 1e-10)
            ok = ccp and cp and preserves is not False
            lines.append(",".join(_fmt(c) for c in [i, d, m, unital, ccp, worst, preserves, ok]))
        assert (out / "cp_suite.csv").read_text() == "\n".join(lines) + "\n"
        rows = [line.split(",") for line in lines[1:]]
        assert {r[3] for r in rows} == {"true", "false"}
        assert all((r[6] == "") == (r[3] == "false") for r in rows)
        assert {r[1] for r in rows} == {"2", "3", "4", "5", "6"}

    def test_cp_suite_calls_module_entry_points(self, tmp_path, monkeypatch):
        # the benchmark's traced structure-suite runs wrap these module attributes and need a
        # span from each, so the suite must reach them by module-global lookup
        from levylab import generators

        calls = dict.fromkeys(("exact_evolve", "is_conditionally_cp", "choi_matrix", "is_completely_positive",
                               "random_standard_generator"), 0)
        for name in calls:
            def counted(*args, _fn=getattr(generators, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(generators, name, counted)
        cfg = write_config(tmp_path, """
[run]
kind = cp-suite
seed = 1
[suite]
count = 10
max_dim = 6
""")
        assert main(["cp-suite", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert all(n >= 1 for n in calls.values()), calls

    def test_mc_semigroup_csv_schema(self, tmp_path):
        cfg = write_config(tmp_path, """
[run]
kind = mc-semigroup
seed = 6
[triplet]
alpha = 1.0
[grid]
n = 256
x_min = -20.0
dx = 0.15625
[mc]
n_paths = 500
[observable]
kind = qtable
func = bump
scale = 1.0
[semigroup]
t = 0.5, 1.0
""")
        out = tmp_path / "o"
        assert main(["mc-semigroup", "--config", cfg, "--out", str(out)]) == 0
        header = (out / "semigroup.csv").read_text().splitlines()[0]
        assert header == "t,observable,estimate_re,estimate_im,stderr,n_paths,seed"
        # observability only: the share of overflowed paths carries no verdict
        record = json.loads((out / "record.json").read_text())
        assert record["metrics"]["overflow_fraction"] == {"value": 0.0}
        assert set(record["manifest"]) == {"semigroup.csv", "semigroup.json"}

    @pytest.mark.parametrize("observable", ["kind = ptable\nfunc = cos\nscale = 0.7", "kind = weyl\nx = 0.5\nv = 0.3"])
    def test_mc_semigroup_observable_kinds(self, tmp_path, observable):
        # g(P) commutes with the shifts, so its rows are exact with no paths; W(x, v) picks up the
        # factor exp(t eta(v)) of the shift's characteristic function, within 4 stderr
        text = f"""
[run]
kind = mc-semigroup
seed = 3
[triplet]
beta = 0.3
alpha = 0.5
atoms = 0.5:1.0; -2.0:0.4
[grid]
n = 256
x_min = -20.0
dx = 0.15625
[mc]
n_paths = 2000
[observable]
{observable}
[semigroup]
t = 0.25, 1.0
"""
        out = tmp_path / "o"
        assert main(["mc-semigroup", "--config", write_config(tmp_path, text), "--out", str(out)]) == 0
        rows = json.loads((out / "semigroup.json").read_text())["rows"]
        params = parse_config(text).params
        exact = expectation(params["state"], params["observable"])
        assert [row["t"] for row in rows] == [0.25, 1.0]
        for row in rows:
            estimate = complex(row["estimate_re"], row["estimate_im"])
            if isinstance(params["observable"], PTable):
                assert (estimate, row["stderr"], row["n_paths"]) == (exact, 0.0, 0)
            else:
                evolved = exact * np.exp(row["t"] * char_exponent_1d(params["triplet"], 0.3))
                assert row["n_paths"] == 2000 and 0.0 < row["stderr"] < 0.01
                assert abs(estimate - evolved) <= 4.0 * row["stderr"]

    def test_generator_check_runner(self, tmp_path):
        cfg = write_config(tmp_path, """
[run]
kind = generator-check
seed = 7
[triplet]
beta = 1.0
[mc]
n_paths = 2000
[genchk]
t_small = 0.01
""")
        assert main(["generator-check", "--config", cfg, "--out", str(tmp_path / "o")]) == 0

    def test_killed_diffusion_runner(self, tmp_path):
        cfg = write_config(tmp_path, """
[run]
kind = killed-diffusion
seed = 8
[feller]
drift = zero
[mc]
n_paths = 5000
[kd]
t = 0.5
dt = 0.005
""")
        out = tmp_path / "o"
        assert main(["killed-diffusion", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "survival.csv").read_text().splitlines()
        assert lines[0] == "t,survival,stderr"

    def test_killed_diffusion_gate_at_zero_stderr(self, tmp_path, capsys):
        # far from the boundary for a short time every path survives: survival 1 with stderr 0, so the
        # tolerance alone judges and z = 0/0 is recorded as null
        cfg = write_config(tmp_path, """
[run]
kind = killed-diffusion
seed = 8
[feller]
drift = zero
[mc]
n_paths = 1000
[kd]
x_start = 10.0
t = 0.01
dt = 0.001
expect = 1.0
""")
        assert main(["killed-diffusion", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "pass"
        survival = json.loads((tmp_path / "o" / "record.json").read_text())["metrics"]["survival"]
        assert survival == {"value": 1.0, "stderr": 0.0, "verdict": "pass", "z": None}

    @pytest.mark.parametrize("run_line, flags, message", [
        ("format = csv\n", [], "config error: [run]: unknown key 'format'"),
        ("", ["--format", "csv"], "unrecognized arguments: --format csv"),
    ])
    def test_output_format_is_not_settable(self, tmp_path, capsys, run_line, flags, message):
        # every run writes a table as CSV and every output as JSON: neither the config nor the CLI chooses
        cfg = write_config(tmp_path, MINIMAL_CHAR.replace("seed = 42\n", "seed = 42\n" + run_line))
        try:
            code = main(["char-check", "--config", cfg, "--out", str(tmp_path / "o"), *flags])
        except SystemExit as exc:  # an argparse usage error
            code = exc.code
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_galilei_compare_runner(self, tmp_path, capsys):
        cfg = write_config(tmp_path, GALILEI_SMALL)
        assert main(["galilei-compare", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metrics"]["deviation_coarse"]["verdict"] == "pass"
        assert payload["metrics"]["deviation_fine"]["verdict"] == "pass"
        assert payload["metrics"]["overflow_fraction"] == {"value": 0.0}  # no verdict

    def test_free_off_galilei_compare_writes_strict_json(self, tmp_path):
        # with no free flow the scheme has no bias and order_estimate is NaN, which RFC 8259
        # JSON cannot hold: every file must parse with NaN and Infinity refused
        cfg = write_config(tmp_path, """
[run]
kind = galilei-compare
seed = 9
[triplet2]
alpha = 1.0, 0.0, 0.0
[grid]
n = 256
x_min = -20.0
dx = 0.15625
[mc]
n_paths = 200
[galilei]
t = 0.5
n_steps = 4
free = false
""")
        out = tmp_path / "o"
        main(["galilei-compare", "--config", cfg, "--out", str(out)])

        def refuse(name):
            raise ValueError(f"not JSON: {name}")

        files = sorted(out.glob("*.json"))
        assert [p.name for p in files] == ["galilei_compare.json", "record.json"]
        data = {p.name: json.loads(p.read_text(), parse_constant=refuse) for p in files}
        assert data["galilei_compare.json"]["order_estimate"] is None

    def test_numerical_failure_exit_code(self, tmp_path):
        # drift so fast the shifted ensemble leaves the grid: exit 3
        cfg = write_config(tmp_path, """
[run]
kind = mc-semigroup
seed = 11
[triplet]
beta = 30.0
[grid]
n = 256
x_min = -20.0
dx = 0.15625
[mc]
n_paths = 200
[observable]
kind = qtable
func = bump
[semigroup]
t = 1.0
""")
        assert main(["mc-semigroup", "--config", cfg, "--out", str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize("kind, seed, body", [
        *(("cp-suite", seed, "[suite]\ncount = 6\nmax_dim = 4\ntimes = 1e300\n") for seed in (2, 5)),
        ("dyson", 1, "[dyson]\ngamma = 1e300\n"),
    ])
    def test_overflowing_exponential_is_numerical_failure(self, tmp_path, capsys, kind, seed, body):
        # finite input whose exponential overflows in the squaring: exit 3, not a config error
        # from the eigensolver or SVD that the non-finite result used to reach, and no warning
        cfg = write_config(tmp_path, f"[run]\nkind = {kind}\nseed = {seed}\n{body}")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([kind, "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == "numerical failure: matrix exponential overflowed\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kind, seed, body, message", [
        # t times the generator overflows before the exponential starts
        ("cp-suite", 2, "[suite]\ntimes = 1e308\n", "of a matrix with a NaN or infinite entry"),
        ("dyson", 1, "[dyson]\ngamma = 10.0\nt = 1e308\n", "of a matrix with a NaN or infinite entry"),
        # scaled by 2**-1022 and squared 1022 times, the unital map collapses to zero, as
        # do the Dyson terms, so the two used to agree and pass
        ("dyson", 1, "[dyson]\nt = 1e308\n", "scaled by 2**-1022: its squarings keep no digit"),
        # a 1-norm past the float range used to cast to a negative s, and pass too
        ("dyson", 1, "[dyson]\ndrive = 1.9\nt = 1e308\n", "scaled by 2**-1024: its squarings keep no digit"),
        # the first batch, a lone non-unital generator, overflows nothing; a later one would
        ("cp-suite", 4, "[suite]\ncount = 6\nmax_dim = 4\ntimes = 1e300\n",
         "scaled by 2**-999: its squarings keep no digit"),
    ])
    def test_meaningless_exponential_is_numerical_failure(self, tmp_path, capsys, kind, seed, body, message):
        # one stderr line, no numpy warning before it, no output directory
        cfg = write_config(tmp_path, f"[run]\nkind = {kind}\nseed = {seed}\n{body}")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([kind, "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == f"numerical failure: matrix exponential {message}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("coefficient", ["1000", "1e300", "1e307", "1.7e308"])
    def test_feller_fit_near_the_float_range_warns_nothing(self, tmp_path, capsys, coefficient):
        # a constant drift is bounded near l, so l absorbs at every coefficient; the shell
        # quadrature read c = 1000 and 1e300 as non-absorbing and warned past 1e307
        cfg = write_config(tmp_path, "[run]\nkind = feller-classify\nseed = 1\n[feller]\ndrift = linear\n"
                                     f"coefficient = {coefficient}\nl = 0.0\nx0 = 1.0\n"
                                     "expect_left = absorbing\nexpect_right = non-absorbing\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["feller-classify", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert capsys.readouterr().err == ""
        metrics = json.loads((tmp_path / "o" / "record.json").read_text())["metrics"]
        assert metrics["left"] == {"value": "absorbing", "verdict": "pass"}
        assert metrics["right"] == {"value": "non-absorbing", "verdict": "pass"}
        diagnostics = json.loads((tmp_path / "o" / "boundary.json").read_text())["diagnostics"]
        assert diagnostics["left"]["integrable"] and not diagnostics["right"]["integrable"]

    def test_state_width_past_the_float_range_fails_in_one_line(self, tmp_path, capsys):
        # width**2 overflows, so the state is uniform and every shift reaches the boundary
        # window; the Python float power used to end this in an internal OverflowError
        text = replace_key(config_text("mc_semigroup_mixed.cfg"), "n_paths", "200") + "\n[state]\nwidth = 1e200\n"
        cfg = write_config(tmp_path, text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["mc-semigroup", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        err = [line for line in capsys.readouterr().err.splitlines() if not line.startswith('{"progress": ')]
        assert len(err) == 1 and err[0].startswith("numerical failure: "), err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("func, scale, code, message", [
        # cos(s x) is NaN past the float range: it used to warn, write nan estimates and pass
        ("cos", "1e308", 2, "config error: observable: cos(1e+308)(Q): table values must be finite"),
        # the bump's lattice values are exactly 0 and 1: a valid table, built without a warning
        ("bump", "1e200", 0, None),
    ])
    def test_observable_scale_past_the_float_range(self, tmp_path, capsys, func, scale, code, message):
        text = replace_key(config_text("mc_semigroup_mixed.cfg"), "n_paths", "200")
        cfg = write_config(tmp_path, replace_key(replace_key(text, "func", func), "scale", scale))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["mc-semigroup", "--config", cfg, "--out", str(tmp_path / "o")]) == code
        err = [line for line in capsys.readouterr().err.splitlines() if not line.startswith('{"progress": ')]
        assert err == ([message] if message else [])
        assert (tmp_path / "o").exists() == (code == 0)

    def test_galilei_alpha_near_the_float_range_fails_in_one_line(self, tmp_path, capsys):
        # the closed form's multiplier underflows to 0 without a warning, and the fine scheme's
        # rate sum overflows: its refusal is the one diagnostic line, before any path is drawn
        cfg = write_config(tmp_path, "[run]\nkind = galilei-compare\nseed = 1\n[triplet2]\n"
                                     "alpha = 1e308, 0.0, 1e308\n[mc]\nn_paths = 16\n[galilei]\nn_steps = 2\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["galilei-compare", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        err = [line for line in capsys.readouterr().err.splitlines() if not line.startswith('{"progress": ')]
        assert len(err) == 1 and err[0].startswith("numerical failure: scheme law's rate sum not finite"), err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("name, progress", [
        ("mc_semigroup_mixed.cfg", [{"progress": "mc-semigroup", "t": t} for t in (0.25, 0.5, 1.0)]),
        ("galilei_gauss.cfg", [{"progress": "galilei-compare", "n_steps": [2, 4]}]),
    ])
    def test_progress_lines_are_json(self, tmp_path, capsys, name, progress):
        # every stderr line of a sample run (golden sizes) is one JSON object: its progress
        text = config_text(name)
        cfg = write_config(tmp_path, text)
        assert main([parse_config(text).kind, "--config", cfg, "--out", str(tmp_path / "o")]) in (0, 1)
        assert [json.loads(line) for line in capsys.readouterr().err.splitlines()] == progress

    @pytest.mark.parametrize("verdicts, code, verdict", [
        (("pass",), 0, "pass"),
        (("pass", "inconclusive"), 1, "inconclusive"),
        (("inconclusive", "fail"), 1, "fail"),
    ])
    def test_record_verdict_is_the_worst_metric_verdict(self, tmp_path, capsys, monkeypatch, verdicts, code, verdict):
        # fail beats inconclusive beats pass; a metric with no verdict takes no part
        metrics = {f"m{i}": Metric(float(i), verdict=v) for i, v in enumerate(verdicts)}

        def fake(cfg):
            return Result([Output("fake", {"n": 1})], {**metrics, "plain": Metric(2)})

        monkeypatch.setitem(EXPERIMENTS, "dyson", dataclasses.replace(EXPERIMENTS["dyson"], run=fake))
        cfg = write_config(tmp_path, "[run]\nkind = dyson\nseed = 3\n")
        assert main(["dyson", "--config", cfg, "--out", str(tmp_path / "o")]) == code
        assert json.loads(capsys.readouterr().out)["verdict"] == verdict
        record = json.loads((tmp_path / "o" / "record.json").read_text())
        assert record["verdict"] == verdict
        assert sorted(record) == ["config_hash", "finished", "kind", "manifest", "metrics", "seed", "started",
                                  "verdict", "version"]
        assert record["metrics"]["plain"] == {"value": 2}
        assert set(record["manifest"]) == {"fake.json"}

    def test_unmapped_exception_is_internal_error(self, tmp_path, capsys, monkeypatch):
        # a run that raises leaves no output directory: it is created only after the run returns
        def broken(cfg):
            raise RuntimeError("boom")

        monkeypatch.setitem(EXPERIMENTS, "dyson", dataclasses.replace(EXPERIMENTS["dyson"], run=broken))
        cfg = write_config(tmp_path, "[run]\nkind = dyson\nseed = 3\n")
        assert main(["dyson", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        captured = capsys.readouterr()
        assert captured.err == "internal error: RuntimeError: boom\n" and captured.out == ""
        assert not (tmp_path / "o").exists()

    def test_out_override_is_not_tokenized(self, tmp_path):
        # a '#' in --out is part of the path, not a comment
        cfg = write_config(tmp_path, "[run]\nkind = dyson\nseed = 3\nout = elsewhere\n")
        assert main(["dyson", "--config", cfg, "--out", str(tmp_path / "dir#1")]) == 0
        assert (tmp_path / "dir#1" / "record.json").exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dir#1", "run.cfg"]

    def test_seed_outside_key_word_is_config_error(self, tmp_path, capsys):
        for seed in (-1, 2**64):
            cfg = write_config(tmp_path, f"[run]\nkind = dyson\nseed = {seed}\n")
            assert main(["dyson", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
            assert f"[run] seed: must be in [0, 2**64), got {seed}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_covariance_check_runner(self, tmp_path):
        cfg = write_config(tmp_path, COVARIANCE)
        assert main(["covariance-check", "--config", cfg, "--out", str(tmp_path / "o")]) == 0

    def test_covariance_check_runner_without_free_term(self, tmp_path):
        # without the free term the boost label does not move; it used to be transported anyway
        cfg = write_config(tmp_path, COVARIANCE + "free = false\n")
        assert main(["covariance-check", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert json.loads((tmp_path / "o" / "record.json").read_text())["metrics"]["defect"]["value"] <= 1e-10

    @pytest.mark.parametrize("kind,name,key,bad", [
        ("galilei-compare", "galilei_gauss.cfg", "n_steps", "0"),
        ("mc-semigroup", "mc_semigroup_mixed.cfg", "t", "-1"),
        ("char-check", "char_check_gauss.cfg", "n_samples", "0"),
        ("killed-diffusion", "killed_bm.cfg", "dt", "0.003"),
        ("killed-diffusion", "killed_bm.cfg", "t", "nan"),
        ("killed-diffusion", "killed_bm.cfg", "t", "inf"),
        ("feller-classify", "feller_zero.cfg", "drift", "nope"),
        ("cp-suite", "cp_suite.cfg", "max_jumps", "0"),
        ("dyson", "dyson.cfg", "gamma", "-1"),
        ("dyson", "dyson.cfg", "n_terms", "-1"),
        ("generator-check", "generator_check.cfg", "func", "nope"),
        ("galilei-compare", "galilei_gauss.cfg", "t", "-1"),
        ("covariance-check", "covariance_check.cfg", "t", "-1"),
        ("mc-semigroup", "mc_semigroup_mixed.cfg", "beta", "nan"),
        ("char-check", "char_check_gauss.cfg", "alpha", "nan"),
        ("dyson", "dyson.cfg", "t", "nan"),
        ("dyson", "dyson.cfg", "t", "-5.0"),
        ("galilei-compare", "galilei_gauss.cfg", "alpha", "1.0, inf, 0.5"),
        ("mc-semigroup", "mc_semigroup_mixed.cfg", "atoms", "0.5:1.0; -2.0:nan"),
        # an empty float list used to compare nothing and pass (or die in numpy)
        ("char-check", "char_check_gauss.cfg", "args", ""),
        ("char-check", "char_check_gauss.cfg", "t", "0.5,,1.0"),
        ("cp-suite", "cp_suite.cfg", "times", "0.1, 1.0,"),
        ("mc-semigroup", "mc_semigroup_mixed.cfg", "t", ""),
        ("generator-check", "generator_check.cfg", "points", " , "),
        # a zero width used to print numpy's divide warnings before its config error,
        # as did these Gaussians past the float range, and a lattice past it overflow warnings
        ("mc-semigroup", "mc_semigroup_mixed.cfg", "width", "0"),
        ("mc-semigroup", "mc_semigroup_mixed.cfg", "width", "1e-200"),
        ("mc-semigroup", "mc_semigroup_mixed.cfg", "center", "1e300"),
        ("mc-semigroup", "mc_semigroup_mixed.cfg", "dx", "1e306"),
        # a packet on the lattice's first points, so 1 / dx, not the state, is at fault
        pytest.param("mc-semigroup", "mc_semigroup_mixed.cfg", ("dx", "center"), ("1e-320", "-40"), id="dx-1e-320"),
        # cos(s x) is not finite at the points: it used to warn, write a null deviation and exit 1
        pytest.param("generator-check", "generator_check.cfg", ("func", "scale"), ("cos", "1e308"), id="cos-1e308"),
    ])
    def test_run_time_range_error_is_config_error(self, tmp_path, kind, name, key, bad):
        # out-of-range values are config errors caught before the run starts,
        # so no output directory is left behind and stderr holds nothing else;
        # a tuple ``key`` sets each of its keys to the entry of ``bad``
        edits = dict(zip(key, bad)) if isinstance(key, tuple) else {key: bad}
        text = (REPO / "configs" / name).read_text()
        for state_key in {"width", "center"} & set(edits):  # no sample config sets a [state] key
            text += f"\n[state]\n{state_key} = 1.0\n"
        for edit in edits.items():
            text = replace_key(text, *edit)
        cfg = write_config(tmp_path, text)
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "levylab", kind, "--config", cfg, "--out", str(tmp_path / "o")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2 and proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert lines and all(line.startswith("config error:") for line in lines), proc.stderr
        assert not (tmp_path / "o").exists()

    def test_generator_check_past_the_float_range_is_numerical_failure(self, tmp_path):
        # cos(8e307 x) is finite at the points but not at x + 0.5, an atom the generator
        # reads, nor at most shifted points: it used to warn three times and exit 1
        text = replace_key(replace_key(config_text("generator_check.cfg"), "func", "cos"), "scale", "8e307")
        cfg = write_config(tmp_path, text)
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "levylab", "generator-check", "--config", cfg, "--out", str(tmp_path / "o")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 3 and proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numerical failure: "), proc.stderr
        assert not (tmp_path / "o").exists()

    def test_cli_import_loads_no_scipy_or_domain_module(self):
        # the package never imports scipy (a test dependency), and each kind
        # imports its domain module when it runs
        code = ("import sys, levylab.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' "
                "or m in ('levylab.generators', 'levylab.semigroup', 'levylab.galilean', 'levylab.feller')))")
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_set_up_loads_only_what_the_kind_runs(self, tmp_path):
        # kinds that use no lattice never load grid or its Monte Carlo users, and a
        # --threads 1 run never loads the thread pool (nor logging, which it imports);
        # a threaded run over two chunks does
        texts = {
            "cp-suite": "[suite]\ncount = 2\nmax_dim = 2\ntimes = 0.5\n",
            "killed-diffusion": "[feller]\ndrift = zero\n[mc]\nn_paths = 200\n[kd]\nt = 0.1\ndt = 0.01\n",
            "mc-semigroup": ("[triplet]\nalpha = 1.0\n[grid]\nn = 256\nx_min = -20.0\ndx = 0.15625\n"
                             "[mc]\nn_paths = 9000\nantithetic = false\n[observable]\nkind = qtable\n"
                             "[semigroup]\nt = 0.5\n"),
        }
        runs = []
        for kind, body in texts.items():
            path = tmp_path / f"{kind}.cfg"
            path.write_text(f"[run]\nkind = {kind}\nseed = 3\n{body}")
            threads = "2" if kind == "mc-semigroup" else "1"
            runs.append([kind, "--config", str(path), "--out", str(tmp_path / kind), "--threads", threads])
        watched = ("levylab.grid", "levylab.semigroup", "levylab.galilean", "concurrent.futures", "logging")
        code = ("import json, sys\nfrom levylab.cli import main\nloaded = []\n"
                f"for argv in {runs!r}:\n    assert main(argv) == 0, argv\n"
                f"    loaded.append([m for m in {watched!r} if m in sys.modules])\n"
                "print(json.dumps(loaded), file=sys.stderr)")
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        cp_suite, killed, threaded = json.loads(proc.stderr.strip().splitlines()[-1])
        assert cp_suite == killed == []
        assert {"levylab.grid", "levylab.semigroup", "concurrent.futures"} <= set(threaded)
        assert len(list(rng.chunk_bounds(9000))) == 2

    def test_runs_never_load_numpy_ma(self, tmp_path):
        # np.unique and np.median import numpy.ma on first use (numpy 2.4); the survival
        # record steps and the generator check's spread are reduced without them
        texts = {
            "killed-diffusion": "[feller]\ndrift = zero\n[mc]\nn_paths = 200\n[kd]\nt = 0.1\ndt = 0.01\n",
            "generator-check": ("[triplet]\nbeta = 1.0\n[mc]\nn_paths = 200\n"
                                "[genchk]\nt_small = 0.01\npoints = -1.0, 0.0, 1.0, 2.0\n"),
        }
        runs = []
        for kind, body in texts.items():
            path = tmp_path / f"{kind}.cfg"
            path.write_text(f"[run]\nkind = {kind}\nseed = 3\n{body}")
            runs.append([kind, "--config", str(path), "--out", str(tmp_path / kind)])
        code = (f"import sys\nfrom levylab.cli import main\nfor argv in {runs!r}:\n    assert main(argv) == 0, argv\n"
                "print('numpy.ma' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == "False"

    def test_set_up_is_frozen_once_per_process(self, tmp_path):
        # objects alive when a config has parsed go to the permanent GC generation on the
        # first main() only; a config error returns before it
        cfg = write_config(tmp_path, MINIMAL_CHAR)
        runs = [["char-check", "--config", cfg, "--out", str(tmp_path / name)] for name in ("a", "b")]
        code = ("import gc, sys\nfrom levylab.cli import main\n"
                "assert main(['char-check', '--config', '/nonexistent.cfg']) == 2\n"
                "counts = [gc.get_freeze_count()]\n"
                f"for argv in {runs!r}:\n    assert main(argv) == 0\n    counts.append(gc.get_freeze_count())\n"
                "print(counts, file=sys.stderr)")
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        before, first, second = json.loads(proc.stderr.strip().splitlines()[-1])
        assert before == 0 and first > 0 and second == first

    @pytest.mark.parametrize("threads", [None, "2"])
    def test_blas_thread_default(self, threads):
        # importing the package first sets one BLAS/OpenMP thread unless the caller chose;
        # the golden hashes of a BLAS-bound and a dense-algebra kind hold either way
        env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        env["PYTHONPATH"] = os.pathsep.join([str(REPO / "src"), str(REPO / "tests")])
        if threads is not None:
            env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        code = ("import json, os\n"
                "from make_golden_manifests import MANIFESTS, SEEDS, run_case\n"
                "golden = json.loads(MANIFESTS.read_text())\n"
                "for name in ('mc_semigroup_mixed.cfg', 'cp_suite.cfg'):\n"
                "    for seed in SEEDS:\n"
                "        got = json.dumps(run_case(name, seed), sort_keys=True)\n"
                "        assert got == json.dumps(golden[name][str(seed)], sort_keys=True), (name, seed)\n"
                "print(os.environ['OPENBLAS_NUM_THREADS'], os.environ['OMP_NUM_THREADS'])")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [threads or "1"] * 2

    def test_structure_kinds_never_import_scipy_linalg(self, tmp_path):
        # the matrix exponential of cp-suite and dyson is the package's own
        runs = [[kind, "--config", str(REPO / "configs" / f"{name}.cfg"), "--out", str(tmp_path / name)]
                for kind, name in (("cp-suite", "cp_suite"), ("dyson", "dyson"))]
        code = (f"import sys\nfrom levylab.cli import main\nfor argv in {runs!r}:\n    assert main(argv) == 0\n"
                "print('scipy.linalg' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == "False"
