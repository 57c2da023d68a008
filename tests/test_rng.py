"""Stream keys: purpose tags, collisions, and the estimates meant to be independent."""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from levylab import rng
from levylab.cli import main
from levylab.feller import DriftSpec
from levylab.grid import QTable, gaussian_state
from levylab.levy import JumpMeasure, LevyTriplet1D
from levylab.montecarlo import MCConfig
from oracles import default_grid, semigroup_two_stage, trace_decay_link

SRC = Path(__file__).resolve().parent.parent / "src" / "levylab"
ORACLES = Path(__file__).resolve().parent / "oracles.py"


def _modules():
    """The package modules and the tests' oracles, which draw from the package's streams."""
    modules = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    return {**modules, "tests/oracles.py": ast.parse(ORACLES.read_text())}


def _assigned(tree) -> dict[str, list[ast.expr]]:
    out: dict[str, list[ast.expr]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    out.setdefault(target.id, []).append(node.value)
    return out


def _literals(node, assigned, where) -> set[str]:
    """String tags an expression can take: literals, conditionals, and local names bound to them."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {node.value}
    if isinstance(node, ast.IfExp):
        return _literals(node.body, assigned, where) | _literals(node.orelse, assigned, where)
    if isinstance(node, ast.Name) and node.id == "tag":
        return set()  # a parameter passed on; its literals are collected where it is given
    if isinstance(node, ast.Name) and node.id in assigned:
        return set().union(*(_literals(v, assigned, where) for v in assigned[node.id]))
    raise AssertionError(f"{where}: tag {ast.unparse(node)!r} is not a literal the key tests can see")


def _tags() -> set[str]:
    """Every purpose tag in ``src/`` and ``tests/oracles.py``.

    That is, arguments of ``stream`` calls and ``tag=`` values and defaults.
    """
    tags = set()
    for name, tree in _modules().items():
        assigned = _assigned(tree)
        for node in ast.walk(tree):
            exprs = []
            if isinstance(node, ast.Call):
                func = node.func
                if (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)) == "stream":
                    assert len(node.args) >= 2 or any(k.arg == "tag" for k in node.keywords), ast.unparse(node)
                    exprs += node.args[1:2]
                exprs += [k.value for k in node.keywords if k.arg == "tag"]
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args.posonlyargs + node.args.args
                defaults = dict(zip([a.arg for a in args][len(args) - len(node.args.defaults):], node.args.defaults))
                defaults.update((a.arg, d) for a, d in zip(node.args.kwonlyargs, node.args.kw_defaults) if d)
                exprs += [defaults["tag"]] if "tag" in defaults else []
            for expr in exprs:
                tags |= _literals(expr, assigned, f"{name}:{node.lineno}")
    return tags


TAGS = {
    "increments", "char-check", "generator-check.half-step", "two-stage.first", "two-stage.second",
    "dilation", "feller.kill.normals", "feller.kill.bridge",
    "random-generator", "cp-suite.shapes", "cp-suite.generator", "gauge-suite.generator",
    "gauge-suite.elements", "ccr-battery", "linearity-probe",
}


class TestKeys:
    def test_tags_found_in_src(self):
        assert _tags() == TAGS

    def test_distinct_triples_give_distinct_keys(self):
        seeds = (0, 1, 2, 3, 2**32 - 1, 2**32, 2**64 - 2, 2**64 - 1)
        indices = (0, 1, 2, 2**32 - 1)
        keys = {rng.key(s, tag, i) for s in seeds for tag in TAGS for i in indices}
        assert len(keys) == len(seeds) * len(TAGS) * len(indices)

    @given(st.integers(0, 2**64 - 1), st.integers(0, 2**32 - 1), st.sampled_from(sorted(TAGS)),
           st.integers(0, 2**64 - 1), st.integers(0, 2**32 - 1), st.sampled_from(sorted(TAGS)))
    def test_keys_differ_where_triples_do(self, s1, i1, t1, s2, i2, t2):
        assert (rng.key(s1, t1, i1) == rng.key(s2, t2, i2)) == ((s1, t1, i1) == (s2, t2, i2))

    def test_stream_is_keyed_by_its_triple(self):
        gen = rng.stream(5, "increments", 7)
        assert gen.bit_generator.state["state"]["key"].tolist() == list(rng.key(5, "increments", 7))
        assert rng.key(5, "increments", 7) == (5, rng.tag_hash("increments") << 32 | 7)

    def test_tag_hash_is_stable(self):
        # blake2b, not the per-process salted hash(): keys repeat across runs
        assert rng.tag_hash("increments") == 4278429455

    @pytest.mark.parametrize("seed, index", [(-1, 0), (2**64, 0), (0, -1), (0, 2**32)])
    def test_out_of_range_rejected(self, seed, index):
        with pytest.raises(ValueError, match="must lie in"):
            rng.key(seed, "increments", index)

    def test_only_rng_builds_generators_or_combines_seeds(self):
        builders = {"Philox", "Generator", "default_rng", "SeedSequence", "RandomState", "PCG64", "MT19937"}

        def is_seed(expr):
            return (isinstance(expr, ast.Name) and expr.id == "seed") or (
                isinstance(expr, ast.Attribute) and expr.attr == "seed")

        found = []
        for name, tree in _modules().items():
            if name == "rng.py":
                continue
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    func = node.func
                    if (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)) in builders:
                        found.append(f"{name}:{node.lineno}: {ast.unparse(node)}")
                elif isinstance(node, ast.BinOp) and (is_seed(node.left) or is_seed(node.right)):
                    found.append(f"{name}:{node.lineno}: {ast.unparse(node)}")
                elif isinstance(node, ast.AugAssign) and is_seed(node.target):
                    found.append(f"{name}:{node.lineno}: {ast.unparse(node)}")
        assert not found, found


@pytest.fixture
def opened(monkeypatch):
    """Record the ``(tag, key)`` of every stream opened while the test runs."""
    log = []
    original = rng.stream

    def recording(seed, tag, index=0):
        log.append((tag, rng.key(seed, tag, index)))
        return original(seed, tag, index)

    monkeypatch.setattr(rng, "stream", recording)
    return log


def _by_tag(log) -> dict[str, list]:
    out: dict[str, list] = {}
    for tag, key in log:
        out.setdefault(tag, []).append(key)
    return out


class TestIndependentEstimatesUseDisjointKeys:
    N = rng.CHUNK + 10  # two streams per ensemble

    def test_two_stage_draws(self, opened):
        triplet = LevyTriplet1D(beta=0.3, alpha=0.5, jumps=JumpMeasure(atoms=[(2.0, 0.4)]))
        psi = gaussian_state(default_grid(256), 0.0, 1.0, 0.0)
        fq = QTable.from_function(psi.grid, lambda x: np.exp(-0.5 * x**2), "bump")
        semigroup_two_stage(triplet, psi, fq, 0.5, 0.7, MCConfig(self.N, 3, antithetic=False))
        groups = _by_tag(opened)
        assert sorted(groups) == ["increments", "two-stage.first", "two-stage.second"]
        assert all(len(keys) == 2 for keys in groups.values())
        assert len({key for _, key in opened}) == len(opened) == 6

    def test_char_check_times(self, opened, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"""[run]
kind = char-check
seed = 2
[triplet]
alpha = 1.0
[check]
t = 0.25, 0.5, 1.0
args = 1.0
n_samples = {self.N}
""")
        assert main(["char-check", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert {tag for tag, _ in opened} == {"char-check"}
        assert len({key for _, key in opened}) == len(opened) == 6

    def test_trace_decay_link_runs(self, opened):
        trace_decay_link(DriftSpec("zero", 0.0, 1.0, 1.0), 1.0, np.array([0.1, 0.2]), MCConfig(self.N, 4), dt=1e-2)
        groups = _by_tag(opened)
        assert set(groups) == {"feller.kill.normals", "feller.kill.bridge"}
        assert len({key for _, key in opened}) == len(opened) == 4

    def test_cp_suite_shapes_and_generators(self, opened, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("[run]\nkind = cp-suite\nseed = 0\n[suite]\ncount = 3\n")
        assert main(["cp-suite", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        groups = _by_tag(opened)
        assert len(groups["cp-suite.shapes"]) == 1 and len(groups["cp-suite.generator"]) == 3
        keys = groups["cp-suite.shapes"] + groups["cp-suite.generator"]
        assert len(set(keys)) == len(keys)
