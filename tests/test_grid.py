"""Lattice quantum system: unitaries, exchange relation, expectations."""

import ast
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.integrate import quad

from levylab.grid import (
    BOUNDARY_WINDOW,
    BoundarySupportWarning,
    GridSpec,
    PTable,
    QTable,
    WaveFunction,
    WeylLabel,
    _apply_lattice_phase,
    apply_weyl,
    boundary_masses,
    displace,
    expectation,
    expectations,
    gaussian_state,
    phase_buffers,
    phase_tables,
)
from oracles import (
    BandLimitWarning,
    IncommensurateShiftWarning,
    apply_free_evolution,
    apply_position_phase,
    apply_shift,
    ccr_defect,
    default_grid,
    is_commensurate,
    momentum_expectation,
    position_expectation,
    unit_state,
)

shifts = st.floats(-3.0, 3.0, allow_nan=False)


class TestGridSpec:
    def test_power_of_two_required(self):
        with pytest.raises(ValueError, match="power of two"):
            GridSpec(n_points=100, x_min=-1.0, dx=0.01)

    def test_positive_spacing_required(self):
        with pytest.raises(ValueError, match="dx must be positive"):
            GridSpec(n_points=8, x_min=-1.0, dx=0.0)

    @pytest.mark.parametrize("x_min, dx", [(-40.0, 1e306), (1.7e308, 1e306), (-np.inf, 0.1), (np.nan, 0.1)])
    def test_non_finite_lattice_refused(self, x_min, dx):
        # its positions, and every state built on them, would not be finite
        with pytest.raises(ValueError, match=r"last lattice point x_min \+ dx \(n - 1\) must be finite"):
            GridSpec(n_points=1024, x_min=x_min, dx=dx)

    def test_momentum_spacing(self, grid):
        assert grid.dp == pytest.approx(2 * np.pi / (1024 * grid.dx), rel=1e-15)


class TestWaveFunction:
    @pytest.mark.parametrize("make", [
        lambda psi: 2.0 * psi.amplitudes,
        lambda psi: np.zeros_like(psi.amplitudes),
        lambda psi: np.where(np.arange(psi.amplitudes.size) == 7, np.nan, psi.amplitudes),
        lambda psi: (1.0 + 2e-12) * psi.amplitudes,
    ], ids=["doubled", "zero", "non-finite", "off-by-2e-12"])
    def test_state_that_is_not_a_unit_vector_refused(self, psi, make):
        # a state is a unit vector: nothing downstream rescales it
        with pytest.raises(ValueError, match="state norm|must be finite"):
            WaveFunction(psi.grid, make(psi))

    def test_unit_vector_accepted_as_given(self, psi):
        out = WaveFunction(psi.grid, (1.0 + 5e-13) * psi.amplitudes)
        assert np.array_equal(out.amplitudes, (1.0 + 5e-13) * psi.amplitudes)

    @pytest.mark.parametrize("center, width, momentum, message", [
        (0.0, 1e-200, 0.0, "must be finite"),      # (x - c)^2 / 0 at the centre
        (1e300, 1.0, 0.0, "zero state"),          # (x - c)^2 overflows: every amplitude is 0
        (0.0, 1.0, 1e308, "must be finite"),      # the phase overflows
    ])
    def test_gaussian_outside_the_float_range_refused_without_warning(self, grid, center, width, momentum, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                gaussian_state(grid, center, width, momentum)

    def test_wide_gaussian_is_the_uniform_state(self, grid):
        # width**2 overflows to inf, which the Python float power refused
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            psi = gaussian_state(grid, 0.0, 1e200)
        assert np.array_equal(psi.amplitudes, np.full(grid.n_points, 1.0 / np.sqrt(grid.n_points * grid.dx), complex))


class TestUnitaries:
    def test_position_phase_zero_is_identity(self, psi):
        out = apply_position_phase(psi, 0.0)
        assert np.array_equal(out.amplitudes, psi.amplitudes)

    def test_position_phase_group_inverse(self, moving_psi):
        out = apply_position_phase(apply_position_phase(moving_psi, 1.7), -1.7)
        assert np.abs(out.amplitudes - moving_psi.amplitudes).max() < 1e-14

    @given(shifts, shifts)
    def test_position_phases_compose_additively(self, y1, y2):
        grid = default_grid(256)
        psi = gaussian_state(grid, 0.0, 1.0)
        a = apply_position_phase(apply_position_phase(psi, y1), y2)
        b = apply_position_phase(psi, y1 + y2)
        assert np.abs(a.amplitudes - b.amplitudes).max() < 1e-12

    @given(shifts, shifts)
    def test_shifts_compose_additively(self, x1, x2):
        grid = default_grid(256)
        psi = gaussian_state(grid, 0.0, 1.0)
        a = apply_shift(apply_shift(psi, x1, check_support=False), x2, check_support=False)
        b = apply_shift(psi, x1 + x2, check_support=False)
        assert np.abs(a.amplitudes - b.amplitudes).max() < 1e-12

    def test_position_phase_boosts_momentum(self, psi):
        out = apply_position_phase(psi, 1.3)
        assert momentum_expectation(out) == pytest.approx(momentum_expectation(psi) + 1.3, abs=1e-10)
        assert position_expectation(out) == pytest.approx(position_expectation(psi), abs=1e-10)

    def test_commensurate_shift_is_circular(self, grid):
        profile = np.zeros(grid.n_points, dtype=complex)
        profile[500:530] = 1.0
        psi = unit_state(grid, profile)
        out = apply_shift(psi, 3 * grid.dx, check_support=False)
        assert np.abs(out.amplitudes - np.roll(psi.amplitudes, 3)).max() < 1e-12

    def test_incommensurate_shift_moves_mean(self, psi):
        out = apply_shift(psi, 1.7)
        assert position_expectation(out) == pytest.approx(position_expectation(psi) + 1.7, abs=1e-8)

    def test_shift_warns_on_boundary_mass(self, grid):
        edge = gaussian_state(grid, grid.x_min + 1.0, 1.0)
        with pytest.warns(BoundarySupportWarning):
            apply_shift(edge, 0.5)

    def test_norm_preserved_by_all_unitaries(self, moving_psi):
        for out in (
            apply_position_phase(moving_psi, 2.1),
            apply_shift(moving_psi, -1.3),
            apply_weyl(moving_psi, WeylLabel(0.7, -0.9)),
            apply_free_evolution(moving_psi, 0.8),
        ):
            assert abs(out.norm() - 1.0) < 1e-12


class TestWeyl:
    def test_identity_label(self, psi):
        out = apply_weyl(psi, WeylLabel(0.0, 0.0))
        assert np.abs(out.amplitudes - psi.amplitudes).max() < 1e-14

    def test_inverse_up_to_phase(self, psi):
        fwd = apply_weyl(psi, WeylLabel(1.0, 2.0))
        back = apply_weyl(fwd, WeylLabel(-1.0, -2.0))
        assert abs(abs(psi.grid.dx * np.vdot(back.amplitudes, psi.amplitudes)) - 1.0) < 1e-10

    def test_displacement_property(self, psi):
        out = apply_weyl(psi, WeylLabel(1.0, 2.0))
        assert position_expectation(out) == pytest.approx(position_expectation(psi) + 1.0, abs=1e-8)
        assert momentum_expectation(out) == pytest.approx(momentum_expectation(psi) + 2.0, abs=1e-8)

    def test_gaussian_overlap_matches_quadrature_oracle(self, psi):
        x0, v0 = 0.8, -1.1
        val = expectation(psi, WeylLabel(x0, v0))
        dens = lambda q: np.pi**-0.5 * np.exp(-0.5 * q**2 - 0.5 * (q - x0) ** 2)
        phase = np.exp(-0.5j * v0 * x0)
        re = quad(lambda q: np.real(phase * np.exp(1j * v0 * q)) * dens(q), -15, 15)[0]
        im = quad(lambda q: np.imag(phase * np.exp(1j * v0 * q)) * dens(q), -15, 15)[0]
        assert val == pytest.approx(re + 1j * im, abs=1e-10)


class TestCCR:
    @pytest.mark.parametrize("n", [256, 1024, 4096])
    def test_commensurate_defect_tiny(self, n):
        g = GridSpec(n_points=n, x_min=-40.0, dx=80.0 / n)
        assert ccr_defect(g, 4 * g.dx, 2 * g.dp) < 1e-10

    def test_zero_arguments_zero_defect(self, grid):
        assert ccr_defect(grid, 0.0, 0.0) == 0.0

    def test_incommensurate_flagged(self, grid):
        with pytest.warns(IncommensurateShiftWarning):
            value = ccr_defect(grid, grid.dx / 2, grid.dp)
        assert np.isfinite(value)

    def test_commensurate_detector(self, grid):
        assert is_commensurate(grid, 5 * grid.dx, -3 * grid.dp)
        assert not is_commensurate(grid, 0.5 * grid.dx, grid.dp)


class TestFreeEvolution:
    def test_time_zero_identity(self, psi):
        out = apply_free_evolution(psi, 0.0)
        assert np.array_equal(out.amplitudes, psi.amplitudes)

    def test_ehrenfest_transport(self, grid):
        psi = gaussian_state(grid, 0.0, 1.0, 1.3)
        out = apply_free_evolution(psi, 2.0)
        assert position_expectation(out) == pytest.approx(2.0 * 1.3, abs=1e-8)
        assert momentum_expectation(out) == pytest.approx(1.3, abs=1e-10)
        kinetic = PTable.from_function(grid, lambda p: 0.5 * p**2)
        assert expectation(out, kinetic).real == pytest.approx(expectation(psi, kinetic).real, abs=1e-12)

    def test_reversibility(self, moving_psi):
        out = apply_free_evolution(apply_free_evolution(moving_psi, 1.1), -1.1)
        assert abs(abs(moving_psi.grid.dx * np.vdot(out.amplitudes, moving_psi.amplitudes)) - 1.0) < 1e-10

    def test_band_limit_warning(self, grid):
        ripple = gaussian_state(grid, 0.0, 1.0, 0.9 * np.abs(grid.p).max())
        with pytest.warns(BandLimitWarning):
            apply_free_evolution(ripple, 0.1)


class TestExpectation:
    def test_identity_table(self, psi):
        one = QTable.from_function(psi.grid, lambda x: np.ones_like(x))
        assert expectation(psi, one) == pytest.approx(1.0, abs=1e-14)

    def test_zero_weyl_label(self, psi):
        assert expectation(psi, WeylLabel(0.0, 0.0)) == pytest.approx(1.0, abs=1e-12)

    def test_momentum_table(self, grid):
        psi = gaussian_state(grid, 0.0, 1.0, 0.5)
        g = PTable.from_function(grid, lambda p: p**2)
        # exp(-x^2/(2 sigma^2)) packet: <P^2> = 1/(2 sigma^2) + p0^2
        assert expectation(psi, g).real == pytest.approx(0.5 + 0.25, abs=1e-8)

    @pytest.mark.parametrize("make", [
        lambda g: QTable.from_function(g, np.cos),
        lambda g: PTable.from_function(g, np.tanh),
        lambda g: WeylLabel(0.7, -0.4),
    ])
    def test_batch_matches_single_state(self, make):
        grid = default_grid(256)
        states = [gaussian_state(grid, c, w, p) for c, w, p in [(0.0, 1.0, 0.0), (-3.0, 1.5, 1.2), (2.5, 0.8, -0.7)]]
        observable = make(grid)
        batch = expectations(np.array([s.amplitudes for s in states]), grid, observable)
        for value, psi in zip(batch, states):
            assert abs(value - expectation(psi, observable)) <= 1e-14

    @pytest.mark.parametrize("table", [QTable, PTable])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_table_refused(self, table, bad):
        # as a state or a Weyl label with a non-finite entry is
        with pytest.raises(ValueError, match="cos: table values must be finite"):
            table((0.0, bad, 1.0), label="cos")

    def test_shifting_weyl_label_warns_on_boundary_mass(self, grid):
        edge = gaussian_state(grid, grid.x_min + 1.0, 1.0)
        with pytest.warns(BoundarySupportWarning):
            expectation(edge, WeylLabel(0.5, 0.3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            expectation(edge, WeylLabel(0.0, 0.3))  # a pure kick does not shift


class TestDisplacementKernel:
    @given(
        st.integers(1, 12),
        st.lists(st.floats(-3.0, 3.0, allow_nan=False), min_size=1, max_size=4),
        st.floats(0.0, 1.0),
        st.booleans(),
    )
    @example(1, [2.5], 0.5, True)   # N = 2: B = 1
    @example(3, [-2.9], 0.3, True)  # N = 8: B = 2, N/B = 4
    @example(3, [2.9], 0.3, False)
    def test_factorized_phase_matches_direct(self, log_n, spans, origin, momentum):
        # xi up to three lattice lengths, eta up to three momentum lattice lengths
        n = 2**log_n
        grid = GridSpec(n_points=n, x_min=-80.0 * origin, dx=80.0 / n)
        lattice = grid.p if momentum else grid.x
        coef = np.array(spans) * (n * grid.dx if momentum else n * grid.dp)
        direct = np.exp(1j * np.outer(coef, lattice))
        table = _apply_lattice_phase(np.ones((1, n), dtype=complex), grid, coef, momentum)
        # both forms round the argument coef * q; the direct form alone is off by
        # about eps * |coef * q|, which is 1e-12 at |coef * q| ~ 1100
        bound = 4.0 * np.finfo(float).eps * max(1.0, np.abs(np.outer(coef, lattice)).max())
        assert np.abs(table - direct).max() <= bound

    @pytest.mark.parametrize("log_n", range(1, 13))
    @pytest.mark.parametrize("momentum", [False, True])
    @pytest.mark.parametrize("scaled", [False, True])
    def test_phase_table_rows_do_not_depend_on_row_count(self, log_n, momentum, scaled):
        # the tables are built by doubling, one multiply over all rows per width; a row's bits
        # must not depend on how many rows share the call (the tile rule of the dilation)
        n = 2**log_n
        grid = GridSpec(n_points=n, x_min=-33.0, dx=80.0 / n)
        gen = np.random.default_rng(log_n)
        coef = gen.uniform(-3.0, 3.0, 1024) * (n * grid.dx if momentum else n * grid.dp)
        scale = np.exp(1j * gen.uniform(-3.0, 3.0, 1024)) if scaled else None
        unit, origin = (grid.dp, 0.0) if momentum else (grid.dx, grid.x_min)
        t1, t2 = phase_tables(coef, n, unit, origin=origin, wrap=momentum, scale=scale)
        alone = []
        for m in range(coef.size):
            one = phase_tables(coef[m:m + 1], n, unit, origin=origin, wrap=momentum,
                               scale=None if scale is None else scale[m:m + 1])
            assert np.array_equal(one[0][0], t1[m]) and np.array_equal(one[1][0], t2[m]), m
            alone.append(one)
        alone = [np.concatenate([one[k] for one in alone]) for k in (0, 1)]
        # odd row counts leave rows to a vector loop's tail; buffers wider than the rows and
        # reused from call to call hold stale columns beside every call's own
        bufs = phase_buffers(n, coef.size + 3)
        for rows in (1, 7, 1023, 1024):
            for out in (None, bufs):
                tables = phase_tables(coef[:rows], n, unit, origin=origin, wrap=momentum,
                                      scale=None if scale is None else scale[:rows], out=out)
                for table, want in zip(tables, alone):
                    assert np.array_equal(table, want[:rows]), (rows, out is None)

    @pytest.mark.parametrize("momentum", [False, True])
    def test_phase_tables_write_into_the_callers_buffers(self, momentum):
        grid = GridSpec(n_points=1024, x_min=-33.0, dx=80.0 / 1024)
        coef = np.linspace(-2.0, 2.0, 5)
        bufs = phase_buffers(1024, 9)
        t1, t2 = phase_tables(coef, 1024, grid.dp, wrap=momentum, out=bufs)
        assert t1.shape == (5, 32) and t2.shape == (5, 32)
        assert np.shares_memory(t1, bufs[2]) and np.shares_memory(t2, bufs[3])
        fresh = phase_tables(coef, 1024, grid.dp, wrap=momentum)
        assert np.array_equal(t1, fresh[0]) and np.array_equal(t2, fresh[1])

    @pytest.mark.parametrize("momentum", [False, True])
    def test_exp_zero_entries_keep_np_exp_bits(self, momentum):
        # entry 0 of T2, and of T1 at origin 0 (the momentum lattice), is exp(0): it is
        # written as 1, which must be the bits np.exp gives for every coefficient sign
        coef = np.array([-2.5, -0.0, 0.0, 1e-300, -1e-300, 3.0])
        origin = 0.0 if momentum else -33.0
        t1, t2 = phase_tables(coef, 1024, 0.1, origin=origin, wrap=momentum)
        exp_zero = np.exp(np.multiply(1j, np.multiply.outer(coef, [0.0, origin])))
        assert t2[:, 0].tobytes() == exp_zero[:, 0].tobytes()
        assert t1[:, 0].tobytes() == exp_zero[:, 1].tobytes()

    def test_batch_rows_match_single_state_weyl(self, moving_psi):
        grid = moving_psi.grid
        labels = [WeylLabel(0.7, -0.9), WeylLabel(-2.3, 1.4), WeylLabel(0.0, 0.5), WeylLabel(1.1, 0.0)]
        hat = np.fft.fft(moving_psi.amplitudes, norm="ortho")
        block = displace(hat[None, :], grid, [w.x for w in labels], [w.v for w in labels])
        for row, w in zip(block, labels):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", BoundarySupportWarning)
                single = apply_weyl(moving_psi, w).amplitudes
            assert np.abs(row - single).max() <= 1e-14
            direct = np.fft.ifft(hat * np.exp(-1j * w.x * grid.p), norm="ortho")
            direct *= np.exp(-0.5j * w.v * w.x) * np.exp(1j * w.v * grid.x)
            assert np.abs(row - direct).max() <= 1e-12

    @pytest.mark.parametrize("rows, labels", [(1, 5), (5, 5), (5, 1)])
    @pytest.mark.parametrize("kick", [False, True])
    @pytest.mark.parametrize("free", [False, True])
    def test_out_buffer_and_in_place_are_bit_identical(self, rows, labels, kick, free):
        # the dilation runs every step in one buffer; that must not move a bit
        grid = default_grid(64, 16.0)
        gen = np.random.default_rng(3)
        hat = gen.standard_normal((rows, 64)) + 1j * gen.standard_normal((rows, 64))
        xi, eta = gen.uniform(-2.0, 2.0, labels), gen.uniform(-2.0, 2.0, labels) if kick else None
        factor = np.exp(-0.3j * grid.p**2) if free else None
        fresh = displace(hat, grid, xi, eta, momentum_factor=factor)
        buf = np.empty(fresh.shape, dtype=complex)
        assert displace(hat, grid, xi, eta, momentum_factor=factor, out=buf) is buf
        assert np.array_equal(buf, fresh)
        in_place = np.broadcast_to(hat, fresh.shape).copy()
        displace(in_place, grid, xi, eta, momentum_factor=factor, out=in_place)
        assert np.array_equal(in_place, fresh)

    def test_boundary_masses_square_only_edges(self):
        grid = default_grid(128, 16.0)
        gen = np.random.default_rng(4)
        states = gen.standard_normal((7, 128)) + 1j * gen.standard_normal((7, 128))
        dens = np.abs(states) ** 2
        full = grid.dx * (dens[:, :BOUNDARY_WINDOW].sum(1) + dens[:, -BOUNDARY_WINDOW:].sum(1))
        assert np.array_equal(boundary_masses(states, grid), full)

    def test_only_grid_builds_outer_product_phases(self):
        # every shift and kick goes through grid.displace; a full paths x N
        # exp(outer(...)) anywhere else is a second, slow copy of it
        def is_np(node, name):
            return (isinstance(node, ast.Attribute) and node.attr == name
                    and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"))

        src = Path(__file__).resolve().parent.parent / "src" / "levylab"
        offenders = []
        for path in sorted(src.glob("*.py")):
            if path.name == "grid.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call) and is_np(node.func, "exp") and any(
                    isinstance(inner, ast.Call) and is_np(inner.func, "outer")
                    for arg in node.args for inner in ast.walk(arg)
                ):
                    offenders.append(f"{path.name}:{node.lineno}")
        assert offenders == []
