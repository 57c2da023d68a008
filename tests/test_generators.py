"""Finite-dimensional generator structure: CP tests, expansion, gauge freedom."""

import ast
import itertools
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from levylab import generators, rng
from levylab.errors import NumericalFailure
from levylab.generators import (
    _THETA13,
    CP_TOL,
    GaugeElement,
    StandardGenerator,
    StructureRow,
    _cp_witness,
    _entangled_complement,
    _expm,
    _hermitian_basis,
    apply_gauge,
    choi_matrix,
    cp_part_superop,
    dyson_terms,
    exact_evolve,
    gauge_group_law_check,
    gauge_product,
    is_completely_positive,
    is_conditionally_cp,
    random_standard_generator,
    structure_rows,
    superop_matrix,
    vec,
)
from oracles import (apply_generator, apply_preadjoint, check_duality, choi_of_map, covariance_defect, hermitian_basis,
                     map_is_completely_positive, reference_standard_generator, unvec)

SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)


def damped_qubit(gamma=1.0, drive=0.5, detuning=0.25) -> StandardGenerator:
    H = 0.5 * drive * SIGMA_X + 0.5 * detuning * SIGMA_Z
    return StandardGenerator.unital_build(H, [np.sqrt(gamma) * SIGMA_MINUS])


def random_gauge(m: int, seed: int) -> GaugeElement:
    gen = rng.stream(seed, "test.gauge-element")
    A = gen.standard_normal((m, m)) + 1j * gen.standard_normal((m, m))
    Q, _ = np.linalg.qr(A)
    a = gen.standard_normal(m) + 1j * gen.standard_normal(m)
    return GaugeElement(D=Q, a=a, b=float(gen.standard_normal()))


class TestApplyGenerator:
    def test_unital_annihilates_identity(self):
        g = damped_qubit()
        assert np.abs(apply_generator(g, np.eye(2))).max() < 1e-12

    def test_pure_hamiltonian_is_commutator(self):
        H = np.array([[0.3, 0.1 - 0.2j], [0.1 + 0.2j, -0.5]])
        g = StandardGenerator.unital_build(H, [])
        X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        assert np.abs(apply_generator(g, X) - 1j * (H @ X - X @ H)).max() < 1e-14

    def test_single_jump_against_brute_force(self):
        # direct 2x2 arithmetic oracle, written out independently
        L = SIGMA_MINUS
        K = 0.5 * (L.conj().T @ L)
        g = StandardGenerator.raw_build(K, [L])
        X = SIGMA_Z
        oracle = L.conj().T @ X @ L - K.conj().T @ X - X @ K
        assert np.abs(apply_generator(g, X) - oracle).max() < 1e-14

    def test_dimension_mismatch(self):
        g = damped_qubit()
        with pytest.raises(ValueError, match="dimension mismatch"):
            apply_generator(g, np.eye(3))

    def test_dissipativity_enforced_in_raw_build(self):
        with pytest.raises(ValueError, match="dissipativity"):
            StandardGenerator.raw_build(np.zeros((2, 2)), [SIGMA_MINUS])

    def test_unital_flag_detection(self):
        L = SIGMA_MINUS
        exact = StandardGenerator.raw_build(0.5 * L.conj().T @ L, [L])
        slack = StandardGenerator.raw_build(0.5 * L.conj().T @ L + 0.2 * np.eye(2), [L])
        assert exact.unital and not slack.unital


class TestChoi:
    def test_identity_map(self):
        c = choi_of_map(lambda X: X, 2)
        eigs = np.sort(np.linalg.eigvalsh(c))
        assert np.allclose(eigs, [0.0, 0.0, 0.0, 2.0], atol=1e-12)

    def test_transpose_map(self):
        c = choi_of_map(lambda X: X.T, 2)
        eigs = np.sort(np.linalg.eigvalsh(c))
        assert np.allclose(eigs, [-1.0, 1.0, 1.0, 1.0], atol=1e-12)

    def test_zero_map(self):
        c = choi_of_map(lambda X: np.zeros_like(X), 3)
        assert not c.any()

    def test_nonlinear_map_rejected(self):
        with pytest.raises(ValueError, match="not linear"):
            choi_of_map(lambda X: X @ X, 2)

    def test_kraus_map_is_cp(self):
        gen = rng.stream(12, "test.kraus-ops")
        ops = [gen.standard_normal((3, 3)) + 1j * gen.standard_normal((3, 3)) for _ in range(2)]
        fn = lambda X: sum(L.conj().T @ X @ L for L in ops)
        ok, min_eig = map_is_completely_positive(fn, 3)
        assert ok and min_eig > -1e-12

    def test_unitary_conjugation_is_cp(self):
        U = np.array([[0, 1], [1, 0]], dtype=complex)
        ok, _ = map_is_completely_positive(lambda X: U.conj().T @ X @ U, 2)
        assert ok

    def test_transpose_not_cp_with_witness(self):
        ok, witness = map_is_completely_positive(lambda X: X.T, 2)
        assert not ok and witness == pytest.approx(-1.0, abs=1e-10)

    @pytest.mark.parametrize("scale", [1e4, 1e6])
    def test_large_kraus_maps_are_cp(self, scale):
        # CP by construction; the witness is round-off of the map's size (down to -1.7e-8 here),
        # so the tolerance scales with max|C| in both CP tests, not only in the conditional one
        witnesses = []
        for seed in range(50):
            gen = rng.stream(seed, "test.scaled-kraus")
            ops = [gen.standard_normal((4, 4)) + 1j * gen.standard_normal((4, 4)) for _ in range(2)]
            fn = lambda X: scale * sum(L.conj().T @ X @ L for L in ops)
            ok, witness = map_is_completely_positive(fn, 4)
            assert ok and is_conditionally_cp(choi_of_map(fn, 4))
            witnesses.append(witness)
        assert min(witnesses) < -CP_TOL  # the absolute rule would have rejected these


TRANSPOSE = np.eye(4)[[0, 2, 1, 3]]  # S[j + 2i, i + 2j] = 1: the superoperator of X -> X^T


class TestChoiOfSuperoperator:
    def test_transpose_witness_matches_black_box_route(self):
        ok, witness = is_completely_positive(choi_matrix(TRANSPOSE, 2))
        assert (ok, witness) == map_is_completely_positive(lambda X: X.T, 2)
        assert ok is False and witness == -1.0

    def test_stack_gives_the_single_verdicts(self):
        gen = rng.stream(12, "test.kraus-ops")
        ops = [gen.standard_normal((3, 3)) + 1j * gen.standard_normal((3, 3)) for _ in range(2)]
        kraus = sum(np.kron(L.T, L.conj().T) for L in ops)  # superoperator of X -> sum L^dag X L
        swap = np.eye(9).reshape(3, 3, 9).swapaxes(0, 1).reshape(9, 9)  # X -> X^T
        C = choi_matrix(np.stack([kraus, swap, 1e6 * kraus]), 3)
        ok, witness = is_completely_positive(C)
        assert ok.tolist() == [True, False, True] and witness.shape == (3,)
        for k, fn in enumerate((lambda X: sum(L.conj().T @ X @ L for L in ops), lambda X: X.T,
                                lambda X: 1e6 * sum(L.conj().T @ X @ L for L in ops))):
            assert is_completely_positive(C[k]) == (bool(ok[k]), float(witness[k]))
            assert map_is_completely_positive(fn, 3)[0] == ok[k]


    def test_witness_helper_is_slicewise_on_a_mixed_stack(self):
        # exp(t gen) at t = -0.5 fails the rule, at t = 0 and 0.5 the Cholesky factor
        # certifies it, and the transpose fails it: the stacked call falls back to eigvalsh
        # and still equals the single calls, with the oracle's eigenvalue where the rule fails
        for d in (2, 4, 6):
            g = random_standard_generator(d, 2, seed=70 + d)
            E = exact_evolve(superop_matrix(g), [-0.5, 0.0, 0.5])
            swap = np.eye(d * d).reshape(d, d, d * d).swapaxes(0, 1).reshape(d * d, d * d)  # X -> X^T
            maps = [lambda X, E=Ek: unvec(E @ vec(X)) for Ek in E] + [lambda X: X.T]
            C = choi_matrix(np.concatenate([E, swap[None]]), d)
            ok, witness = _cp_witness(C, C)
            assert ok.tolist() == [False, True, True, False]
            for k, fn in enumerate(maps):
                single_ok, single = _cp_witness(C[k], C[k])
                assert single_ok == ok[k] and np.float64(single).tobytes() == witness[k].tobytes()
                oracle_ok, eig = map_is_completely_positive(fn, d)
                assert oracle_ok == ok[k]
                assert witness[k] == (0.0 if ok[k] else eig)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("entry", [(0, 0), (0, 1)])
    def test_non_finite_input_is_refused(self, bad, entry):
        # a Cholesky factorization of a NaN matrix does not fail, so the rule must refuse
        # a non-finite matrix or stack before it computes anything, and warn about nothing
        M = np.eye(4, dtype=complex)
        M[entry] = M[entry[::-1]] = bad
        stack = np.stack([np.eye(4), M, np.eye(4)])
        calls = (lambda: _cp_witness(M, M), lambda: _cp_witness(np.eye(4), M), lambda: _cp_witness(stack, stack),
                 lambda: is_completely_positive(M), lambda: is_completely_positive(stack),
                 lambda: is_conditionally_cp(M), lambda: is_conditionally_cp(stack))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in calls:
                with pytest.raises(NumericalFailure, match="NaN or infinite"):
                    call()


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shape and identical IEEE bit patterns, signed zeros included."""
    return a.shape == b.shape and np.array_equal(np.asarray(a, complex).view(np.uint64),
                                                 np.asarray(b, complex).view(np.uint64))


def kron_superop(g: StandardGenerator) -> np.ndarray:
    """Reference: the superoperator from ``np.kron``, term by term in the package's order."""
    eye = np.eye(g.dim, dtype=complex)
    mat = -np.kron(eye, g.K.conj().T) - np.kron(g.K.T, eye)
    for L in g.jump_ops:
        mat += np.kron(L.T, L.conj().T)
    return mat


class TestRandomGenerator:
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_matches_block_by_block_reference(self, d):
        # one draw of normals and one validated build give the reference's draws and builds bit for bit
        for m, unital, index, tag in itertools.product((1, 2, 3), (True, False), range(3),
                                                       ("random-generator", "cp-suite.generator")):
            g = random_standard_generator(d, m, 5, unital=unital, tag=tag, index=index)
            ref = reference_standard_generator(d, m, 5, unital=unital, tag=tag, index=index)
            assert same_bits(g.K, ref.K) and same_bits(g.jump_ops, np.array(ref.jump_ops))
            assert g.unital is ref.unital is unital

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_non_unital_slack_is_2c_identity(self, d):
        # K + K^dag - sum L^dag L = 2cI with c in [0.1, 0.5): dissipative and not unital, so no second check
        for m, index in itertools.product((1, 2, 3), range(3)):
            g = random_standard_generator(d, m, 5, unital=False, index=index)
            stream = rng.stream(5, "random-generator", index)
            stream.standard_normal((m + 1, 2, d, d))
            c = 0.1 + 0.4 * stream.random()
            slack = g.K + g.K.conj().T - sum(L.conj().T @ L for L in g.jump_ops)
            assert 0.1 <= c < 0.5
            assert np.abs(slack - 2.0 * c * np.eye(d)).max() <= 1e-12 * max(1.0, np.abs(g.K).max())

    def test_jump_ops_are_one_stack_on_every_path(self):
        built = {
            "unital_build": (damped_qubit(), (1, 2, 2)),
            "no jumps": (StandardGenerator.unital_build(SIGMA_Z, []), (0, 2, 2)),
            "raw_build": (StandardGenerator.raw_build(0.5 * np.eye(2), (SIGMA_MINUS,)), (1, 2, 2)),
            "random": (random_standard_generator(3, 2, seed=1, unital=False), (2, 3, 3)),
            "apply_gauge": (apply_gauge(random_standard_generator(3, 2, seed=1), random_gauge(2, 3)), (2, 3, 3)),
        }
        for name, (g, shape) in built.items():
            assert isinstance(g.jump_ops, np.ndarray), name
            assert (g.jump_ops.dtype, g.jump_ops.shape, g.n_jumps) == (np.complex128, shape, shape[0]), name


class TestSuperopAndChoi:
    @given(st.integers(1, 6), st.integers(0, 2**32 - 1), st.sampled_from([1e-3, 1.0, 1e3]))
    @example(1, 0, 1.0)
    @example(6, 1, 1e3)
    def test_choi_matrix_matches_block_assembly(self, d, seed, scale):
        gen = rng.stream(seed, "test.superop", d)
        S = scale * (gen.standard_normal((2, d * d, d * d)) + 1j * gen.standard_normal((2, d * d, d * d)))
        S[gen.random(S.shape) < 0.2] = 0.0  # exact zeros, as in structured superoperators
        batch = choi_matrix(S, d)
        for k in range(2):
            oracle = choi_of_map(lambda X: unvec(S[k] @ vec(X)), d)
            assert same_bits(choi_matrix(S[k], d), oracle)
            assert same_bits(batch[k], oracle)

    @pytest.mark.parametrize("d", [1, 2, 3, 6])
    @pytest.mark.parametrize("m", [0, 1, 3])
    def test_superop_matrix_matches_kron_build(self, d, m):
        for unital in (True, False):
            g = random_standard_generator(d, m, seed=900 + 10 * d + m, unital=unital)
            S = superop_matrix(g)
            assert same_bits(S, kron_superop(g))
            X = np.arange(d * d).reshape(d, d) * (1.0 - 0.5j)
            assert np.abs(unvec(S @ vec(X)) - apply_generator(g, X)).max() < 1e-12

    def test_batched_evolution_matches_scalar_calls(self):
        times = [0.0, 0.1, 1.0, 2.5, 10.0]
        for d, unital in ((2, True), (3, False), (5, True)):
            g = random_standard_generator(d, 2, seed=40 + d, unital=unital)
            S = superop_matrix(g)
            stacked = exact_evolve(S, times)
            assert stacked.shape == (len(times), d * d, d * d)
            for k, t in enumerate(times):
                assert same_bits(stacked[k], exact_evolve(S, t))
            assert exact_evolve(S, []).shape == (0, d * d, d * d)

    def test_no_module_calls_np_kron(self):
        # every Kronecker product in the package goes through the one broadcast
        # helper in generators.py
        src = Path(__file__).resolve().parent.parent / "src" / "levylab"
        offenders = [
            f"{path.name}:{node.lineno}"
            for path in sorted(src.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and node.attr == "kron"
            and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
        ]
        assert offenders == []


def generator_choi(g: StandardGenerator) -> np.ndarray:
    return choi_matrix(superop_matrix(g), g.dim)


class TestConditionalCP:
    def test_standard_generators_pass(self):
        for i in range(5):
            g = random_standard_generator(3, 2, seed=100 + i)
            assert is_conditionally_cp(generator_choi(g)) is True

    def test_hamiltonian_only_passes(self):
        g = StandardGenerator.unital_build(SIGMA_Z, [])
        assert is_conditionally_cp(generator_choi(g))

    def test_transpose_fails(self):
        assert is_conditionally_cp(choi_of_map(lambda X: X.T, 2)) is False

    @pytest.mark.parametrize("d", [2, 3, 6])
    def test_projector_is_cached_and_read_only(self, d):
        P = _entangled_complement(d)
        omega = vec(np.eye(d))
        assert P is _entangled_complement(d) and not P.flags.writeable
        assert np.allclose(P @ P, P, atol=1e-15) and np.allclose(P @ omega, 0.0, atol=1e-15)
        assert np.allclose(P, P.conj().T, atol=0.0)


class TestEvolution:
    def test_time_zero_identity(self):
        g = damped_qubit()
        assert np.abs(exact_evolve(superop_matrix(g), 0.0) - np.eye(4)).max() < 1e-14

    def test_unital_preserves_identity(self):
        g = damped_qubit()
        E = exact_evolve(superop_matrix(g), 2.0)
        assert np.abs(unvec(E @ vec(np.eye(2))) - np.eye(2)).max() < 1e-10

    def test_semigroup_law(self):
        S = superop_matrix(damped_qubit())
        E = exact_evolve
        assert np.abs(E(S, 0.7) @ E(S, 0.5) - E(S, 1.2)).max() < 1e-9

    def test_nonunital_contracts_identity(self):
        g = random_standard_generator(3, 2, seed=7, unital=False)
        rho = np.eye(3) / 3.0
        values = []
        for t in (0.0, 0.3, 1.0, 3.0):
            Et = exact_evolve(superop_matrix(g), t)
            values.append(np.trace(rho @ unvec(Et @ vec(np.eye(3)))).real)
        assert all(a >= b - 1e-10 for a, b in zip(values, values[1:]))


def scipy_expm_error(A: np.ndarray) -> float:
    """Largest entry of ``_expm(A) - scipy.linalg.expm(A)`` relative to ``max |expm(A)|``, worst slice."""
    from scipy.linalg import expm

    ref = expm(A)
    return float(np.max(np.abs(_expm(A) - ref).max(axis=(-2, -1)) / np.abs(ref).max(axis=(-2, -1))))


class TestExpm:
    """The package's exponential against ``scipy.linalg.expm`` as the reference."""

    @pytest.mark.parametrize("seed", [1, 7, 13])
    def test_matches_scipy_on_cp_suite_battery(self, seed):
        # the cp-suite draws at max_dim 6 and max_jumps 3, stacked over the times
        times = np.array([0.0, 0.1, 1.0, 10.0, 100.0])
        shapes = rng.stream(seed, "cp-suite.shapes")
        worst = 0.0
        for i in range(100):
            d, m, unital = int(shapes.integers(2, 7)), int(shapes.integers(1, 4)), bool(shapes.integers(0, 2))
            g = random_standard_generator(d, m, seed, unital=unital, tag="cp-suite.generator", index=i)
            worst = max(worst, scipy_expm_error(times[:, None, None] * superop_matrix(g)))
        assert worst <= 1e-12

    @pytest.mark.parametrize("seed", [1, 7])
    def test_real_stack_stays_real(self, seed):
        # the cp-suite exponentials in the Hermitian basis: real in, float64 out
        times = np.array([0.0, 0.1, 1.0, 10.0])
        for d, m, unital in ((2, 1, True), (4, 3, False), (6, 2, True)):
            U = _hermitian_basis(d)
            g = random_standard_generator(d, m, seed, unital=unital, tag="cp-suite.generator")
            A = times[:, None, None] * (U.conj().T @ superop_matrix(g) @ U).real
            assert _expm(A).dtype == np.float64
            assert scipy_expm_error(A) <= 1e-12

    def test_special_matrices(self):
        assert np.array_equal(_expm(np.zeros((3, 3))), np.eye(3))
        beside = 3.0 * np.array([[0.5, 0.2j, 0.0], [-0.5, 0.25j, 0.1], [0.0, 0.3, -1.0]]) * _THETA13  # s = 2
        mixed = _expm(np.stack([np.zeros((3, 3)), beside]))
        assert np.array_equal(mixed[0], np.eye(3)) and np.array_equal(mixed[1], _expm(beside))
        assert _expm(np.zeros((0, 4, 4))).shape == (0, 4, 4)
        jordan = np.diag(np.ones(4), 1)  # nilpotent: exp is the truncated series
        series = sum(np.linalg.matrix_power(jordan, k) / np.prod(np.arange(1.0, k + 1)) for k in range(5))
        assert np.abs(_expm(jordan) - series).max() <= 1e-15
        assert scipy_expm_error(jordan) <= 1e-12
        at_theta = np.array([[0.5, 0.0], [-0.5, 0.25j]]) * _THETA13  # 1-norm exactly theta13: s = 0
        assert np.abs(at_theta).sum(axis=0).max() == _THETA13
        assert scipy_expm_error(at_theta) <= 1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_raises(self, bad):
        A = np.zeros((2, 3, 3))
        A[1, 0, 2] = bad
        with pytest.raises(NumericalFailure):
            _expm(A)

    def test_overflow_in_squaring_raises(self):
        # exp(800) is beyond double range: the squaring overflows from a finite input
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFailure, match="overflowed"):
                _expm(np.array([[800.0]]))
            with pytest.raises(NumericalFailure, match="overflowed"):
                _expm(np.stack([np.zeros((2, 2)), np.diag([1.0, 800.0])]))
            with pytest.raises(NumericalFailure, match="overflowed"):  # a 1-norm past the float range
                _expm(np.array([[-1e308, 1e308], [1e308, -1e308]]))
        assert _expm(np.array([[700.0]]))[0, 0] == pytest.approx(np.exp(700.0), rel=1e-12)

    def test_scaling_past_precision_raises(self):
        # at s >= 53 squarings 2**s times the unit round-off 2**-53 reach 1; exp(-A) underflows
        # without overflowing, so only the scaling rule can refuse it
        with pytest.raises(NumericalFailure, match="2\\*\\*-53: its squarings keep no digit"):
            _expm(np.array([[-_THETA13 * 2.0**53]]))
        with pytest.raises(NumericalFailure, match="keep no digit"):
            _expm(np.stack([np.zeros((1, 1)), np.array([[-1e17]])]))
        assert np.isfinite(_expm(np.array([[-_THETA13 * 2.0**52]]))).all()  # s = 52 still passes


def structure_row(gen: StandardGenerator, times) -> StructureRow:
    """Reference: one generator's row, computed alone (the per-generator loop ``structure_rows`` replaced).

    It exponentiates in the same Hermitian basis and judges by the same CP helper, so it matches bit for bit.
    """
    d = gen.dim
    S = superop_matrix(gen)
    ccp = is_conditionally_cp(choi_matrix(S, d))
    ts = [float(t) for t in times]
    if gen.unital and 1.0 not in ts:
        ts.append(1.0)
    U = _hermitian_basis(d)
    E = U @ exact_evolve((U.conj().T @ S @ U).real, ts) @ U.conj().T
    cp, eigs = is_completely_positive(choi_matrix(E[:len(times)], d))
    worst = min([0.0, *map(float, eigs)])
    preserves = None
    if gen.unital:
        E1 = E[ts.index(1.0)]
        preserves = bool(np.abs(unvec(E1 @ vec(np.eye(d))) - np.eye(d)).max() <= 1e-10)
    return StructureRow(conditionally_cp=ccp, completely_positive=bool(cp.all()), choi_min_eig=worst,
                        preserves_identity=preserves)


def suite_generators(seed: int, count: int, max_dim: int, max_jumps: int = 3) -> list[StandardGenerator]:
    """The generators a ``cp-suite`` run draws."""
    shapes = rng.stream(seed, "cp-suite.shapes")
    gens = []
    for i in range(count):
        d, m = int(shapes.integers(2, max_dim + 1)), int(shapes.integers(1, max_jumps + 1))
        unital = bool(shapes.integers(0, 2))
        gens.append(random_standard_generator(d, m, seed, unital=unital, tag="cp-suite.generator", index=i))
    return gens


def same_row(a: StructureRow, b: StructureRow) -> bool:
    return (a.conditionally_cp is b.conditionally_cp and a.completely_positive is b.completely_positive
            and a.preserves_identity is b.preserves_identity
            and np.float64(a.choi_min_eig).tobytes() == np.float64(b.choi_min_eig).tobytes())


class TestStructureRows:
    # exp(t gen) is CP for t >= 0, so its Choi eigenvalue is 0 or round-off there; a negative
    # time gives each generator its own negative eigenvalue, so a row mixed up with another shows
    @pytest.mark.parametrize("times", [(0.1, 1.0, 10.0), (0.0, 0.1, 2.5), (1.0,), (0.5,), (0.0,), (-0.5, 0.0, 2.0)])
    def test_rows_equal_one_generator_oracle(self, times):
        gens = suite_generators(11, 60, 6)
        assert {g.dim for g in gens} == {2, 3, 4, 5, 6} and {g.unital for g in gens} == {True, False}
        rows = structure_rows(gens, times)
        assert len(rows) == len(gens)
        for g, row in zip(gens, rows):
            assert same_row(row, structure_row(g, times))
            assert (row.preserves_identity is None) == (not g.unital)
        if min(times) < 0:
            assert len({row.choi_min_eig for row in rows}) == len(rows)
            assert not any(row.completely_positive or row.passed for row in rows)

    def test_rows_judge_cp_by_the_one_rule(self):
        # exp(t gen) at t = -1e-9 has witnesses near -5e-9: inside the old absolute -1e-8 bound,
        # outside -CP_TOL * max(1, max|C|), the rule both CP tests use
        gens = [random_standard_generator(d, 2, seed=5) for d in (2, 4, 6)]
        for row in structure_rows(gens, (-1e-9, 0.5)):
            assert -1e-8 < row.choi_min_eig < -CP_TOL
            assert row.conditionally_cp and not row.completely_positive and not row.passed
        assert all(row.completely_positive and row.passed for row in structure_rows(gens, (0.0, 0.5)))

    @pytest.mark.parametrize("budget", [1, 2**40])
    def test_rows_do_not_depend_on_budget(self, monkeypatch, budget):
        # one generator per batch, and whole (dim, n_jumps) groups in one batch
        gens = suite_generators(5, 40, 6)
        times = (-0.3, 0.0, 2.0)
        reference = structure_rows(gens, times)
        monkeypatch.setattr(generators, "EXPM_BATCH_BYTES", budget)
        assert all(same_row(a, b) for a, b in zip(structure_rows(gens, times), reference))

    def test_stacked_calls_equal_single_calls(self):
        times = [0.0, 0.1, 1.0, 10.0]
        for d, m in ((2, 1), (3, 3), (6, 2)):
            gens = [random_standard_generator(d, m, seed=60 + k, unital=bool(k % 2)) for k in range(4)]
            S = superop_matrix(gens)
            E = exact_evolve(S, times)
            assert S.shape == (4, d * d, d * d) and E.shape == (4, len(times), d * d, d * d)
            assert exact_evolve(S, 0.5).shape == (4, d * d, d * d)
            ccp = is_conditionally_cp(choi_matrix(S, d))
            assert ccp.shape == (4,)
            for j, g in enumerate(gens):
                assert same_bits(S[j], superop_matrix(g))
                assert same_bits(E[j], exact_evolve(superop_matrix(g), times))
                assert ccp[j] == is_conditionally_cp(generator_choi(g))

    @pytest.mark.parametrize("budget", [1, 2**40])
    def test_one_superoperator_per_batch(self, monkeypatch, budget):
        # each batch builds its superoperators once and shares them between the conditional
        # CP test and the exponential
        calls = []

        def counted(gens, _fn=superop_matrix):
            calls.append(len(gens))
            return _fn(gens)

        gens = suite_generators(3, 30, 6)
        monkeypatch.setattr(generators, "superop_matrix", counted)
        monkeypatch.setattr(generators, "EXPM_BATCH_BYTES", budget)
        structure_rows(gens, (0.1, 1.0))
        shapes = {(g.dim, g.n_jumps) for g in gens}
        assert len(shapes) > 1 and sum(calls) == len(gens)
        assert len(calls) == (len(gens) if budget == 1 else len(shapes))

    def test_generators_are_real_in_the_hermitian_basis(self):
        # every (dim, n_jumps) the structure suite draws: U is unitary, and U^dag S U is
        # real up to round-off, so its exponential may run in real arithmetic
        for d in range(2, 7):
            U = _hermitian_basis(d)
            assert not U.flags.writeable
            assert np.abs(U.conj().T @ U - np.eye(d * d)).max() <= 1e-15
            for m in (1, 2, 3):
                for unital in (True, False):
                    S = superop_matrix(random_standard_generator(d, m, seed=80 + d, unital=unital))
                    assert np.abs((U.conj().T @ S @ U).imag).max() <= 1e-14 * np.abs(S).max()

    def test_mixed_shapes_rejected(self):
        with pytest.raises(ValueError, match="one shape"):
            superop_matrix([random_standard_generator(2, 1, seed=1), random_standard_generator(3, 1, seed=1)])
        with pytest.raises(ValueError, match="one shape"):
            superop_matrix([random_standard_generator(2, 1, seed=1), random_standard_generator(2, 2, seed=1)])

    def test_peak_memory_of_structure_suite(self):
        # the 400 draws of the structure-suite benchmark; batching whole groups peaked at
        # 23.1 MiB and a 256 KiB budget at 2.8 MiB
        gens = suite_generators(1, 400, 6)
        tracemalloc.start()
        try:
            rows = structure_rows(gens, (0.1, 1.0, 10.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(row.passed for row in rows)
        assert peak <= 1.5 * 2**20


class TestDyson:
    def test_zero_terms_is_relaxing_semigroup(self):
        g = damped_qubit()
        term0 = sum(dyson_terms(g, 1.3, 0))
        E = np.asarray(exact_evolve_relax(g, 1.3))
        assert np.abs(term0 - E).max() < 1e-12

    def test_time_zero_identity(self):
        g = damped_qubit()
        assert np.abs(sum(dyson_terms(g, 0.0, 5)) - np.eye(4)).max() < 1e-12

    def test_twelve_terms_hit_exact(self):
        g = damped_qubit()
        err = np.abs(sum(dyson_terms(g, 1.0, 12)) - exact_evolve(superop_matrix(g), 1.0)).max()
        assert err < 1e-6

    def test_terms_are_cp(self):
        g = damped_qubit()
        for term in dyson_terms(g, 1.0, 6):
            _, min_eig = map_is_completely_positive(lambda X: unvec(term @ vec(X)), 2)
            assert min_eig > -1e-10

    def test_factorial_decay_of_term_ratios(self):
        g = damped_qubit()
        terms = dyson_terms(g, 1.0, 10)
        norms = [np.linalg.norm(T, 2) for T in terms]
        phi_norm = np.linalg.norm(cp_part_superop(g), 2)
        for n in range(len(norms) - 1):
            if norms[n] < 1e-14:
                continue
            assert norms[n + 1] / norms[n] <= phi_norm * 1.0 / (n + 1) * 1.1

    def test_quadrature_cross_check(self):
        g = damped_qubit()
        exact = dyson_terms(g, 0.8, 3)
        quad = dyson_quadrature(g, 0.8, 3)
        worst = max(np.abs(a - b).max() for a, b in zip(exact, quad))
        assert worst < 1e-10

    def test_negative_terms_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            dyson_terms(damped_qubit(), 1.0, -1)


def exact_evolve_relax(g: StandardGenerator, t: float) -> np.ndarray:
    from scipy.linalg import expm

    E = expm(-g.K * t)
    return np.kron(E.T, E.conj().T)


GAUSS_NODES, GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(16)


def dyson_quadrature(g: StandardGenerator, t: float, n_terms: int) -> list[np.ndarray]:
    """Reference: the jump expansion by nested 16-point Gauss-Legendre recursion.

    Independent of the block exponential of :func:`dyson_terms`; its cost
    grows as 16^n, so keep ``n_terms`` at 4 or below.
    """
    phi = cp_part_superop(g)
    w, v = np.linalg.eig(g.K)
    vinv = np.linalg.inv(v)

    def relax(s: float) -> np.ndarray:
        E = (v * np.exp(-w * s)) @ vinv
        return np.kron(E.T, E.conj().T)

    def term(n: int, upto: float) -> np.ndarray:
        if n == 0:
            return relax(upto)
        nodes = 0.5 * upto * (GAUSS_NODES + 1.0)
        weights = 0.5 * upto * GAUSS_WEIGHTS
        acc = np.zeros((g.dim**2, g.dim**2), dtype=complex)
        for s, wq in zip(nodes, weights):
            acc += wq * (relax(upto - s) @ phi @ term(n - 1, s))
        return acc

    return [term(n, t) for n in range(n_terms + 1)]


class TestDuality:
    def test_maximally_mixed_state(self):
        g = damped_qubit()
        X = np.array([[0.2, 1 + 1j], [1 - 1j, -0.4]])
        assert check_duality(g, np.eye(2) / 2, X, t=0.0) < 1e-12

    def test_identity_observable_unital(self):
        g = damped_qubit()
        rho = np.diag([0.7, 0.3]).astype(complex)
        assert abs(np.trace(apply_preadjoint(g, rho))) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_random_instances_up_to_d5(self, d):
        gen = rng.stream(17, "test.states", d)
        for i in range(3):
            g = random_standard_generator(d, 2, seed=50 + 10 * d + i, unital=bool(i % 2))
            rho = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
            rho = rho @ rho.conj().T
            rho /= np.trace(rho)
            X = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
            assert check_duality(g, rho, X, t=0.4) < 1e-10


class TestGauge:
    def test_identity_element_is_neutral(self):
        g = damped_qubit()
        out = apply_gauge(g, GaugeElement(D=np.eye(1), a=np.zeros(1), b=0.0))
        assert np.abs(out.K - g.K).max() < 1e-14
        assert np.abs(out.jump_ops[0] - g.jump_ops[0]).max() < 1e-14

    def test_action_invariance(self):
        for i in range(5):
            g = random_standard_generator(2, 3, seed=300 + i)
            elem = random_gauge(3, 400 + i)
            transformed = apply_gauge(g, elem)
            for X in hermitian_basis(2):
                assert np.abs(
                    apply_generator(transformed, X) - apply_generator(g, X)
                ).max() < 1e-10

    def test_unitality_preserved(self):
        g = damped_qubit()
        out = apply_gauge(g, random_gauge(1, 5))
        assert out.unital

    def test_phase_only_element_shifts_k(self):
        g = damped_qubit()
        out = apply_gauge(g, GaugeElement(D=((1.0,),), a=(0.0,), b=1.3))
        assert np.abs(out.K - (g.K - 1.3j * np.eye(2))).max() < 1e-14
        for X in hermitian_basis(2):
            assert np.abs(apply_generator(out, X) - apply_generator(g, X)).max() < 1e-12

    def test_group_law_product(self):
        g1 = random_gauge(3, 1)
        g2 = random_gauge(3, 2)
        gen = random_standard_generator(2, 3, seed=42)
        assert gauge_group_law_check(g1, g2, gen) < 1e-10

    def test_identity_is_right_neutral(self):
        g1 = random_gauge(2, 11)
        prod = gauge_product(g1, GaugeElement(D=np.eye(2), a=np.zeros(2), b=0.0))
        assert np.abs(prod.D - g1.D).max() < 1e-14
        assert np.abs(prod.a - g1.a).max() < 1e-14
        assert prod.b == pytest.approx(g1.b, abs=1e-14)

    def test_translation_pair_picks_up_phase(self):
        a1 = np.array([1.0 + 0.5j, -0.3j])
        a2 = np.array([0.2 - 1.0j, 0.7])
        g1 = GaugeElement(D=np.eye(2), a=a1, b=0.0)
        g2 = GaugeElement(D=np.eye(2), a=a2, b=0.0)
        prod = gauge_product(g1, g2)
        assert prod.b == pytest.approx(-np.imag(np.vdot(a1, a2)), abs=1e-14)

    def test_multiplicity_mismatch_rejected(self):
        with pytest.raises(ValueError, match="m=2"):
            apply_gauge(damped_qubit(), GaugeElement(D=np.eye(2), a=np.zeros(2), b=0.0))


class TestCovariance:
    def test_identity_conjugation(self):
        g = damped_qubit()
        E = exact_evolve(superop_matrix(g), 1.0)
        fn = lambda X: unvec(E @ vec(X))
        assert covariance_defect(fn, np.eye(2), hermitian_basis(2)) == 0.0

    def test_commuting_generator_is_covariant(self):
        V = np.diag(np.exp(1j * np.array([0.3, -1.1])))
        g = StandardGenerator.unital_build(SIGMA_Z, [np.diag([0.5, -0.2]).astype(complex)])
        E = exact_evolve(superop_matrix(g), 1.0)
        fn = lambda X: unvec(E @ vec(X))
        assert covariance_defect(fn, V, hermitian_basis(2)) < 1e-10

    def test_generic_generator_breaks_covariance(self):
        V = np.diag(np.exp(1j * np.array([0.3, -1.1])))
        g = damped_qubit()
        E = exact_evolve(superop_matrix(g), 1.0)
        fn = lambda X: unvec(E @ vec(X))
        assert covariance_defect(fn, V, hermitian_basis(2)) > 0.01
