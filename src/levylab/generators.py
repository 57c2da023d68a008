"""Finite-dimensional structure theory for dynamical semigroup generators.

Generators act in the observable (backward) picture:

    gen[X] = sum_k L_k^dag X L_k - K^dag X - X K,

with the dissipativity condition ``sum_k L_k^dag L_k <= K + K^dag``
(equality for unital generators, where ``gen[I] = 0``).  The "unital build"
takes ``(H, {L_k})`` and sets ``K = iH + (1/2) sum L^dag L``; the "raw
build" takes ``(K, {L_k})`` and validates dissipativity, keeping the two
ways ``K`` absorbs Hamiltonian and relaxation from being confused.

Superoperators use column stacking: ``vec(A X B) = (B^T kron A) vec(X)``.
The Choi matrix of a map M is ``C = sum_ij E_ij kron M[E_ij]``, an index
permutation of M's superoperator matrix; complete positivity is positivity
of C, and conditional complete positivity is positivity of C compressed to
the orthogonal complement of the maximally entangled vector ``sum_i |ii>``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import rng
from .errors import NumericalFailure

_HERM_TOL = 1e-12
_DISS_TOL = 1e-10
#: Tolerance on the smallest Choi eigenvalue in the (conditional) CP tests.
CP_TOL = 1e-10


def _as_matrix(m, d=None) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if d is not None and m.shape[0] != d:
        raise ValueError(f"dimension mismatch: expected {d}, got {m.shape[0]}")
    return m


def _jumps(jump_ops: Sequence, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``(m, d, d)`` stack of the jump operators, each checked by :func:`_as_matrix`, and ``sum_k L_k^dag L_k``."""
    ops = np.array([_as_matrix(L, d) for L in jump_ops], dtype=complex).reshape(-1, d, d)
    return ops, sum(ops.conj().swapaxes(-1, -2) @ ops, np.zeros((d, d), dtype=complex))


@dataclass
class StandardGenerator:
    """Jump operators (an ``(m, d, d)`` stack) and accretive K defining a generator in standard form."""

    jump_ops: np.ndarray
    K: np.ndarray
    unital: bool

    @classmethod
    def unital_build(cls, hamiltonian, jump_ops: Sequence) -> "StandardGenerator":
        """From ``(H, {L_k})`` with ``K = iH + (1/2) sum L^dag L``; always unital."""
        H = _as_matrix(hamiltonian)
        if np.abs(H - H.conj().T).max() > _HERM_TOL * max(1.0, np.abs(H).max()):
            raise ValueError("hamiltonian must be Hermitian")
        ops, gram = _jumps(jump_ops, H.shape[0])
        return cls(jump_ops=ops, K=1j * H + 0.5 * gram, unital=True)

    @classmethod
    def raw_build(cls, K, jump_ops: Sequence) -> "StandardGenerator":
        """From ``(K, {L_k})``; validates dissipativity and detects unitality."""
        K = _as_matrix(K)
        ops, gram = _jumps(jump_ops, K.shape[0])
        slack = K + K.conj().T - gram
        scale = max(1.0, float(np.abs(K).max()), float(np.abs(gram).max()))
        eigs = np.linalg.eigvalsh(0.5 * (slack + slack.conj().T))
        if eigs.min() < -_DISS_TOL * scale:
            raise ValueError(
                f"dissipativity violated: sum L^dag L - K - K^dag has eigenvalue {-eigs.min():.3e} > 0"
            )
        unital = bool(np.abs(slack).max() <= _DISS_TOL * scale)
        return cls(jump_ops=ops, K=K, unital=unital)

    @property
    def dim(self) -> int:
        return self.K.shape[0]

    @property
    def n_jumps(self) -> int:
        return len(self.jump_ops)


def _parts(gens) -> tuple[np.ndarray, np.ndarray]:
    """``K`` and the ``(m, d, d)`` jump stack; a sequence of generators of one shape adds a leading axis."""
    if isinstance(gens, StandardGenerator):
        return gens.K, gens.jump_ops
    gens = list(gens)
    if len({(g.dim, g.n_jumps) for g in gens}) != 1:
        raise ValueError("expected generators of one shape (dim, n_jumps)")
    return np.array([g.K for g in gens]), np.array([g.jump_ops for g in gens])


# --------------------------------------------------------------------------
# Superoperator and Choi machinery
# --------------------------------------------------------------------------

def vec(X: np.ndarray) -> np.ndarray:
    return np.asarray(X, dtype=complex).reshape(-1, order="F")


def _kron(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``np.kron`` of the last two axes, broadcast over the leading ones.

    Forms the same products as ``np.kron`` on contiguous operands, so a
    single pair gives its result bit for bit.
    """
    A = np.ascontiguousarray(A)
    B = np.ascontiguousarray(B)
    (n, m), (p, q) = A.shape[-2:], B.shape[-2:]
    out = A[..., :, None, :, None] * B[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (n * p, m * q))


def _relaxing_superop(K: np.ndarray) -> np.ndarray:
    """``-(I kron K^dag) - (K^T kron I)``: the generator without its jumps."""
    eye = np.eye(K.shape[-1], dtype=complex)
    return -_kron(eye, K.conj().swapaxes(-1, -2)) - _kron(K.swapaxes(-1, -2), eye)


def _jump_superops(ops: np.ndarray) -> np.ndarray:
    """``L^T kron L^dag`` for each jump operator of the ``(..., m, d, d)`` stack."""
    return _kron(ops.swapaxes(-1, -2), ops.conj().swapaxes(-1, -2))


def superop_matrix(gen) -> np.ndarray:
    """Superoperator matrix of the generator's observable-picture action; stacked for a sequence of one shape."""
    K, ops = _parts(gen)
    mat = _relaxing_superop(K)
    for term in np.moveaxis(_jump_superops(ops), -3, 0):
        mat += term
    return mat


def cp_part_superop(gen: StandardGenerator) -> np.ndarray:
    return _jump_superops(gen.jump_ops).sum(axis=0)


def choi_matrix(S: np.ndarray, d: int) -> np.ndarray:
    """Choi matrix ``C = sum_ij E_ij kron M[E_ij]`` of the map with superoperator ``S``, batched over leading axes.

    Column stacking makes it an index permutation: ``C[i d + a, j d + b] = S[a + b d, i + j d]``.
    """
    S = np.asarray(S, dtype=complex)
    lead = S.shape[:-2]
    return S.reshape(lead + (d, d, d, d)).swapaxes(-4, -1).reshape(lead + (d * d, d * d))


def _cp_witness(M: np.ndarray, C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Verdicts and witnesses of the one CP rule on the Hermitian part of ``M``, ``tol = CP_TOL * max(1, max|C|)``.

    The rule is ``lambda_min(herm M) >= -tol``.  One stacked Cholesky factorization of
    ``herm M + tol I`` certifies it, and a certified matrix has witness 0.0.  Only when that
    factorization fails does ``eigvalsh`` run on the stack; a matrix failing the rule then
    has its smallest eigenvalue as witness, and one passing it 0.0, so no slice depends on
    its batch.  Batched over leading axes.  A NaN or infinite entry in ``M`` or ``C`` raises
    :class:`NumericalFailure` before any arithmetic on them.
    """
    if not (np.isfinite(M).all() and np.isfinite(C).all()):
        raise NumericalFailure("CP test of a matrix with a NaN or infinite entry")
    herm = 0.5 * (M + np.conj(np.swapaxes(M, -1, -2)))
    tol = CP_TOL * np.fmax(1.0, np.abs(C).max(axis=(-2, -1)))
    try:
        np.linalg.cholesky(herm + tol[..., None, None] * np.eye(M.shape[-1]))
    except np.linalg.LinAlgError:
        eigs = np.linalg.eigvalsh(herm).min(axis=-1)
        witness = np.where(eigs >= -tol, 0.0, eigs)
    else:
        witness = np.zeros(tol.shape)
    return witness >= -tol, witness


def is_completely_positive(C: np.ndarray):
    """CP verdict and witness (:func:`_cp_witness`) of the Choi matrix ``C``, or arrays for a stack."""
    C = np.asarray(C, dtype=complex)
    ok, witness = _cp_witness(C, C)
    return (bool(ok), float(witness)) if ok.ndim == 0 else (ok, witness)


def is_conditionally_cp(C: np.ndarray):
    """Conditional complete positivity of the map with Choi matrix ``C`` (``d^2 x d^2``, or a stack).

    Choi positivity off the maximally entangled vector; a bool, or an array
    of verdicts for a stack.
    """
    C = np.asarray(C, dtype=complex)
    P = _entangled_complement(int(round(np.sqrt(C.shape[-1]))))
    with np.errstate(invalid="ignore", over="ignore"):  # _cp_witness refuses a non-finite projection
        ok = _cp_witness(P @ C @ P, C)[0]
    return bool(ok) if ok.ndim == 0 else ok


@functools.lru_cache(maxsize=None)
def _entangled_complement(d: int) -> np.ndarray:
    """``I - omega omega^dag / d``, the projector off the maximally entangled ``omega = sum_i |ii>`` (read-only)."""
    P = np.eye(d * d, dtype=complex) - np.outer(vec(np.eye(d)), vec(np.eye(d))) / d  # omega is real
    P.setflags(write=False)
    return P


# --------------------------------------------------------------------------
# Evolution: exact exponential and the jump expansion
# --------------------------------------------------------------------------

#: Numerator coefficients ``b_0..b_13`` of the degree-13 Pade approximant to ``exp``.
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
           129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
           40840800.0, 960960.0, 16380.0, 182.0, 1.0)
#: Largest 1-norm for which the degree-13 approximant is accurate to double precision.
_THETA13 = 5.371920351148152


def _expm(A) -> np.ndarray:
    """Matrix exponential of the last two axes, batched over the leading ones.

    Scaling and squaring with the degree-13 Pade approximant: only the
    degree-13 branch of Higham 2005, Algorithm 2.3, in the input's dtype (a
    real input gives a real result, anything else complex).  Each slice
    gets its own scaling ``s_k`` from its 1-norm and is squared ``s_k``
    times, so slice ``k`` equals the unbatched call on ``A[k]`` bit for
    bit; a zero slice gives exactly the identity.  A NaN or infinite
    entry, a squaring that overflows, or a scaling by ``2**-s`` with
    ``s >= 53`` raises :class:`NumericalFailure`: there ``2**s`` times the
    unit round-off ``2**-53`` is at least 1, so the squarings keep no digit
    of the result.
    """
    A = np.asarray(A)
    A = A.astype(complex if np.iscomplexobj(A) else float, copy=False)
    if not np.isfinite(A).all():
        raise NumericalFailure("matrix exponential of a matrix with a NaN or infinite entry")
    n = A.shape[-1]
    X = A.reshape((-1, n, n))
    with np.errstate(over="ignore"):  # a 1-norm past the float range is scaled as the largest float
        norms = np.abs(X).sum(axis=-2).max(axis=-1, initial=0.0)
    s = np.ceil(np.log2(np.clip(norms / _THETA13, 1.0, np.finfo(float).max))).astype(int)
    X = X * np.exp2(-s)[:, None, None]
    b, eye = _PADE13, np.eye(n)
    X2 = X @ X
    X4 = X2 @ X2
    X6 = X2 @ X4
    U = X @ (X6 @ (b[13] * X6 + b[11] * X4 + b[9] * X2) + b[7] * X6 + b[5] * X4 + b[3] * X2 + b[1] * eye)
    V = X6 @ (b[12] * X6 + b[10] * X4 + b[8] * X2) + b[6] * X6 + b[4] * X4 + b[2] * X2 + b[0] * eye
    R = np.linalg.solve(V - U, V + U)
    R[norms == 0] = eye  # the solve rounds b_0 I / b_0 I through 1 / b_0
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(s.max(initial=0)):
            more = s > j
            R[more] = R[more] @ R[more]
    if not np.isfinite(R).all():
        raise NumericalFailure("matrix exponential overflowed")
    if s.max(initial=0) >= 53:
        raise NumericalFailure(f"matrix exponential scaled by 2**-{s.max()}: its squarings keep no digit")
    return R.reshape(A.shape)


def exact_evolve(S: np.ndarray, t) -> np.ndarray:
    """``exp(t S)`` for a superoperator matrix ``S`` (scaling-and-squaring).

    ``S`` may be a stack of superoperators and ``t`` a sequence of times: one
    stacked :func:`_expm` call evaluates every pair, and slice ``[j, k]`` of
    the result equals ``exact_evolve(S[j], t[k])`` bit for bit.
    """
    t = np.asarray(t, dtype=float)
    S = np.asarray(S)
    with np.errstate(over="ignore"):  # an infinite product is reported by _expm's finiteness check
        tS = t[..., None, None] * S.reshape(S.shape[:-2] + (1,) * t.ndim + S.shape[-2:])
    return _expm(tS)


@dataclass(frozen=True)
class StructureRow:
    """One generator's checks in the CP structure suite."""

    conditionally_cp: bool
    completely_positive: bool  # exp(t gen) passes the CP rule (_cp_witness) at every time
    choi_min_eig: float  # 0.0 when every time passes, else the most negative Choi eigenvalue of a failing time
    preserves_identity: bool | None  # exp(gen)[I] = I to 1e-10; None when not checked (non-unital)

    @property
    def passed(self) -> bool:
        return self.conditionally_cp and self.completely_positive and self.preserves_identity is not False


@functools.lru_cache(maxsize=None)
def _hermitian_basis(d: int) -> np.ndarray:
    """``U`` with columns ``vec(F_a)``, ``F_a`` an orthonormal basis of Hermitian ``d x d`` matrices (read-only).

    ``(E_jk + E_kj) / sqrt(2)`` and ``i (E_jk - E_kj) / sqrt(2)`` for each ``j < k``, then ``E_jj``.
    ``U`` is unitary, and a map taking Hermitian matrices to Hermitian ones, as a generator
    does, has the real matrix ``U^dag S U`` in this basis.
    """
    j, k = np.triu_indices(d, 1)
    cols = 2 * np.arange(j.size)
    U = np.zeros((d * d, d * d), dtype=complex)
    U[np.arange(d) * (d + 1), 2 * j.size + np.arange(d)] = 1.0
    U[j + k * d, cols] = U[k + j * d, cols] = np.sqrt(0.5)
    U[j + k * d, cols + 1] = 1j * np.sqrt(0.5)
    U[k + j * d, cols + 1] = -1j * np.sqrt(0.5)
    U.setflags(write=False)
    return U


#: Bytes of one batch's stacked exponential in :func:`structure_rows` (memory only; no effect on rows).
EXPM_BATCH_BYTES = 64 * 1024


def structure_rows(gens: Sequence[StandardGenerator], times: Sequence[float]) -> list[StructureRow]:
    """Conditional CP of each generator and complete positivity of ``exp(t gen)`` at each time.

    Generators of one ``(dim, n_jumps)`` go in batches of at most ``EXPM_BATCH_BYTES`` of
    complex exponentials (``len(ts) * d**4 * 16`` bytes each, ``ts`` the times plus ``t = 1``
    for the identity check): one stacked superoperator ``S``, from which one conditional CP
    test, one real exponential of ``U^dag S U`` (:func:`_hermitian_basis`) over generators and
    ``ts``, taken back to ``U E U^dag`` for the Choi matrices, and one :func:`_cp_witness` of
    them.  Each row equals a one-generator batch bit for bit.
    """
    times = [float(t) for t in times]
    ts = times if 1.0 in times else times + [1.0]
    groups: dict[tuple[int, int], list[int]] = {}
    for i, g in enumerate(gens):
        groups.setdefault((g.dim, g.n_jumps), []).append(i)
    rows: list = [None] * len(gens)
    for (d, _), members in groups.items():
        omega, per = vec(np.eye(d)), max(1, EXPM_BATCH_BYTES // (len(ts) * d**4 * 16))
        U = _hermitian_basis(d)
        Uh = U.conj().T
        for idx in (members[lo:lo + per] for lo in range(0, len(members), per)):
            batch = [gens[i] for i in idx]
            S = superop_matrix(batch)
            ccp = is_conditionally_cp(choi_matrix(S, d))
            E = U @ exact_evolve((Uh @ S @ U).real, ts) @ Uh
            C = choi_matrix(E[:, :len(times)], d)
            ok, witness = _cp_witness(C, C)
            defect = np.abs(E[:, ts.index(1.0)] @ omega - omega).max(axis=-1)
            for k, g in enumerate(batch):
                preserves = bool(defect[k] <= 1e-10) if g.unital else None
                rows[idx[k]] = StructureRow(bool(ccp[k]), bool(ok[k].all()), min([0.0, *map(float, witness[k])]),
                                            preserves)
    return rows


def dyson_terms(gen: StandardGenerator, t: float, n_terms: int) -> list[np.ndarray]:
    """Terms of the jump expansion around the relaxing semigroup.

    Term 0 is the relaxing semigroup ``exp(-K^dag t) . exp(-K t)``; term n
    is the time-ordered n-jump integral.  Every term is a CP map.  All
    terms come from one exponential of the block lower-bidiagonal
    superoperator (diagonal blocks: relaxing generator; subdiagonal: the CP
    jump part), which reproduces the nested time-ordered integrals exactly.
    """
    if n_terms < 0:
        raise ValueError("n_terms must be nonnegative")
    d2 = gen.dim**2
    relax_gen = _relaxing_superop(gen.K)
    phi = cp_part_superop(gen)
    nblk = n_terms + 1
    big = np.zeros((nblk * d2, nblk * d2), dtype=complex)
    for n in range(nblk):
        big[n * d2:(n + 1) * d2, n * d2:(n + 1) * d2] = relax_gen
        if n:
            big[n * d2:(n + 1) * d2, (n - 1) * d2:n * d2] = phi
    E = exact_evolve(big, t)
    return [E[n * d2:(n + 1) * d2, 0:d2].copy() for n in range(nblk)]


# --------------------------------------------------------------------------
# Gauge freedom
# --------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GaugeElement:
    """Redundancy transformation ``(D, a, b)`` between standard representations.

    ``D`` (unitary on the multiplicity space), ``a`` (vector there), and a
    real phase rate ``b``; acts as ``L' = D L + a I`` componentwise and
    ``K' = K + a^dag (D L) + (|a|^2/2 - i b) I``.  ``D`` and ``a`` are kept
    as read-only complex arrays (copies of what was passed).
    """

    D: np.ndarray
    a: np.ndarray
    b: float

    def __post_init__(self):
        D = np.array(self.D, dtype=complex)
        a = np.array(self.a, dtype=complex)
        m = a.size
        if D.shape != (m, m):
            raise ValueError(f"D shape {D.shape} incompatible with a of length {m}")
        if np.abs(D @ D.conj().T - np.eye(m)).max() > _HERM_TOL * 10 * max(1.0, m):
            raise ValueError("D must be unitary")
        for name, value in (("D", D), ("a", a)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def m(self) -> int:
        return self.a.size


def gauge_product(g1: GaugeElement, g2: GaugeElement) -> GaugeElement:
    """Group law matching sequential action: applying g2 then g1 equals g1*g2."""
    if g1.m != g2.m:
        raise ValueError("gauge elements act on different multiplicity spaces")
    D1, D2 = g1.D, g2.D
    a1, a2 = g1.a, g2.a
    b = g1.b + g2.b - float(np.imag(np.vdot(a1, D1 @ a2)))
    return GaugeElement(D=D1 @ D2, a=D1 @ a2 + a1, b=b)


def apply_gauge(gen: StandardGenerator, g: GaugeElement) -> StandardGenerator:
    """Transform ``(L, K)`` by the gauge element; the generator's action is unchanged."""
    if g.m != gen.n_jumps:
        raise ValueError(f"gauge element has m={g.m} but generator has {gen.n_jumps} jump operators")
    eye = np.eye(gen.dim, dtype=complex)
    a = g.a[:, None, None]
    rotated = (g.D[:, :, None, None] * gen.jump_ops).sum(axis=1)  # (D L)_k = sum_j D[k, j] L_j
    K = gen.K + (np.conj(a) * rotated).sum(axis=0) + (0.5 * float(np.vdot(g.a, g.a).real) - 1j * g.b) * eye
    return StandardGenerator.raw_build(K, rotated + a * eye)


def gauge_group_law_check(g1: GaugeElement, g2: GaugeElement, gen: StandardGenerator) -> float:
    """Defect between sequential gauge action and the action of the product."""
    seq = apply_gauge(apply_gauge(gen, g2), g1)
    prod = apply_gauge(gen, gauge_product(g1, g2))
    return max(float(np.abs(seq.K - prod.K).max()), float(np.abs(seq.jump_ops - prod.jump_ops).max(initial=0.0)))


# --------------------------------------------------------------------------
# Random instances for batteries
# --------------------------------------------------------------------------

def random_standard_generator(
    d: int, m: int, seed: int, unital: bool = True, tag: str = "random-generator", index: int = 0
) -> StandardGenerator:
    """A random ``d``-level generator with ``m`` jump operators, from stream ``index`` of ``tag``."""
    gen = rng.stream(seed, tag, index)
    z = gen.standard_normal((m + 1, 2, d, d))
    A = z[0, 0] + 1j * z[0, 1]
    base = StandardGenerator.unital_build(0.5 * (A + A.conj().T), (z[1:, 0] + 1j * z[1:, 1]) / np.sqrt(2.0 * d))
    if unital:
        return base
    # K + cI, c in [0.1, 0.5): the slack K + K^dag - sum L^dag L is 2cI, dissipative and not unital
    return replace(base, K=base.K + (0.1 + 0.4 * gen.random()) * np.eye(d), unital=False)
