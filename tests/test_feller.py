"""Boundary classification and killed-diffusion Monte Carlo."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.special import erf

from levylab import rng
from levylab.feller import (
    BRIDGE_CUT,
    DRIFTS,
    DriftSpec,
    _bridge_candidates,
    feller_test,
    simulate_killed_diffusion,
)
from levylab.montecarlo import MCConfig, run_chunks
from oracles import shell_feller_test, trace_decay_link

ZERO, BESSEL3, OU = (DriftSpec(name, 0.0, 1.0, 1.0) for name in ("zero", "bessel3", "ou"))


class TestClassification:
    def test_zero_drift(self):
        report = feller_test(ZERO)
        assert report.left == "absorbing"
        assert report.right == "non-absorbing"
        assert report.diagnostics == {"left": {"integrable": True, "form": "|F| -> x0 - l"},
                                      "right": {"integrable": False, "form": "|F| ~ x"}}

    def test_bessel3_left_non_absorbing(self):
        report = feller_test(BESSEL3)
        assert report.left == "non-absorbing"
        assert report.right == "non-absorbing"

    def test_ou_right_non_absorbing(self):
        report = feller_test(OU)
        assert report.right == "non-absorbing"
        assert report.left == "absorbing"

    @pytest.mark.parametrize("name,l,x0,message", [
        ("nope", 0.0, 1.0, "unknown drift 'nope' \\(zero, bessel3, ou, linear\\)"),
        ("zero", 1.0, 1.0, "strictly right of l"),
    ])
    def test_spec_rejects_unknown_name_and_start_off_the_half_line(self, name, l, x0, message):
        with pytest.raises(ValueError, match=message):
            DriftSpec(name, l, x0, 1.0)


class TestShellOracle:
    """The closed forms of ``feller.DRIFTS`` against the shell-quadrature classifier."""

    @pytest.mark.parametrize("name,c", [("zero", 1.0), ("ou", 1.0), ("bessel3", 1.0)]
                             + [("linear", c) for c in (-100.0, -10.0, -1.0, 1.0, 3.0)])
    def test_closed_form_agrees_with_oracle(self, name, c):
        spec = DriftSpec(name, 0.0, 1.0, c)
        closed, shell = feller_test(spec), shell_feller_test(spec.drift, spec.l, spec.x0)
        assert (closed.left, closed.right) == (shell.left, shell.right)

    @pytest.mark.parametrize("p,verdict", [(0.5, "non-absorbing"), (1.5, "absorbing"), (2.0, "absorbing"),
                                           (3.0, "absorbing")])
    def test_oracle_sees_explosion(self, p, verdict):
        # b = x^p reaches infinity in finite time iff p > 1: then |F| ~ 1/(2b), and
        # integral^inf dx / x^p converges
        assert shell_feller_test(lambda x: x**p, 0.0, 1.0).right == verdict

    def test_diagnostics_present_for_verdicts(self):
        report = shell_feller_test(ZERO.drift, 0.0, 1.0)
        for side in ("left", "right"):
            diag = report.diagnostics[side]
            assert len(diag["log_integral"]) >= 6 and np.isfinite(diag["slope"])


class TestKilledDiffusion:
    def test_time_zero_survival(self):
        curve = simulate_killed_diffusion(ZERO, 1.0, 0.5, 0.01, MCConfig(500, 1))
        assert curve.survival[0] == 1.0

    def test_absorption_matches_reflection_principle(self):
        curve = simulate_killed_diffusion(ZERO, 1.0, 1.0, 1e-3, MCConfig(100000, 17, threads=2))
        assert abs(curve.final - erf(1.0 / np.sqrt(2.0))) < 0.01

    def test_survival_monotone_in_time(self):
        curve = simulate_killed_diffusion(ZERO, 1.0, 1.0, 1e-3, MCConfig(20000, 18, threads=2))
        assert np.all(np.diff(curve.survival) <= 1e-12)

    def test_bessel3_rarely_absorbs(self):
        curve = simulate_killed_diffusion(BESSEL3, 1.0, 1.0, 2.5e-4, MCConfig(20000, 19, threads=2))
        assert curve.final > 0.99

    def test_bridge_correction_shrinks_step_bias(self):
        spec = ZERO
        def final(dt, bridge):
            mc = MCConfig(50000, 5, threads=2)
            if bridge:
                return simulate_killed_diffusion(spec, 1.0, 1.0, dt, mc).final
            return _reference_survival(spec, 1.0, 1.0, dt, mc, bridge=False)[-1]
        corrected = abs(final(4e-3, True) - final(1e-3, True))
        uncorrected = abs(final(4e-3, False) - final(1e-3, False))
        assert corrected < uncorrected

    def test_start_left_of_boundary_rejected(self):
        with pytest.raises(ValueError, match="right of the boundary"):
            simulate_killed_diffusion(ZERO, -1.0, 1.0, 0.01, MCConfig(10, 1))

    def test_coarse_step_warns(self):
        # an Euler step is biased for ou's drift -x, here 10 at the start against dt = 0.5
        with pytest.warns(UserWarning, match="coarse") as record:
            simulate_killed_diffusion(OU, 10.0, 0.5, 0.5, MCConfig(100, 2))
        assert record[0].filename == __file__

    @pytest.mark.parametrize("c, dt", [(50.0, 0.01), (5.0, 0.5)])
    def test_exact_step_never_warns(self, c, dt):
        # a constant drift steps exactly in law at any dt, so no step is coarse for it
        assert {name: d.exact_step for name, d in DRIFTS.items()} == {
            "zero": True, "bessel3": False, "ou": False, "linear": True}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            simulate_killed_diffusion(DriftSpec("linear", 0.0, 1.0, c), 1.0, 10 * dt, dt, MCConfig(100, 2))

    def test_stderr_is_binomial(self):
        # the trace-decay witness divides 1 - S(t) by this stderr alone
        mc = MCConfig(2000, 3)
        curve = simulate_killed_diffusion(ZERO, 1.0, 0.5, 0.01, mc)
        assert curve.stderr[0] == 0.0
        assert np.array_equal(curve.stderr, np.sqrt(curve.survival * (1.0 - curve.survival) / mc.n_paths))


def _reference_survival(spec, x_start, t, dt, mc, bridge=True):
    """Survival curve from a per-step alive-mask loop on the worker's draw order.

    Per chunk and step: one normal per live path from the normals stream,
    then, with the bridge on, one uniform per live path whose bridge
    exponent (Gobet's, both factors as ``max(., 0)``) is above
    ``-BRIDGE_CUT``, from the bridge stream; both in path order, and nothing
    once every path is dead.  ``bridge=False`` kills only paths whose
    endpoint crossed: the uncorrected Euler scheme, on the same normals.
    """
    n_steps = int(round(t / dt))
    rec_steps = np.unique(np.round(np.linspace(0.0, t, min(n_steps, 200) + 1) / dt).astype(int))
    sqdt, l = np.sqrt(dt), spec.l

    def worker(idx, start, stop):
        m = stop - start
        normals = rng.stream(mc.seed, "feller.kill.normals", idx)
        uniforms = rng.stream(mc.seed, "feller.kill.bridge", idx)
        x = np.full(m, float(x_start))
        alive = np.ones(m, dtype=bool)
        alive_counts = np.zeros(rec_steps.size, dtype=np.int64)
        rec_pos = 0
        for step in range(n_steps + 1):
            if rec_pos < rec_steps.size and step == rec_steps[rec_pos]:
                alive_counts[rec_pos] = int(alive.sum())
                rec_pos += 1
            if step == n_steps:
                break
            idx_alive = np.nonzero(alive)[0]
            if idx_alive.size == 0:
                continue
            xa = x[idx_alive]
            xb = xa + np.asarray(spec.drift(xa), dtype=float) * dt + sqdt * normals.standard_normal(idx_alive.size)
            crossed = xb <= l
            if bridge:
                with np.errstate(over="ignore"):
                    arg = -2.0 * np.maximum(xa - l, 0.0) * np.maximum(xb - l, 0.0) / dt
                tested = arg > -BRIDGE_CUT
                crossed[tested] |= uniforms.random(np.count_nonzero(tested)) < np.exp(arg[tested])
            alive[idx_alive[crossed]] = False
            x[idx_alive[~crossed]] = xb[~crossed]
        return alive_counts

    return sum(run_chunks(worker, mc.n_paths, threads=mc.threads)) / mc.n_paths


def _simulate_both(spec, x_start, n_steps, dt, mc):
    t = n_steps * dt
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # coarse-step warning at small x_start
        curve = simulate_killed_diffusion(spec, x_start, t, dt, mc)
    return curve, _reference_survival(spec, x_start, t, dt, mc)


class TestCompactedWorker:
    """The compacted live-set worker reproduces an alive-mask loop bit for bit."""

    @given(
        st.sampled_from(sorted(DRIFTS)),
        st.sampled_from([0.05, 0.3, 1.0]),
        st.integers(0, 12),
        st.sampled_from([2.5e-4, 1e-3, 4e-3, 1e-2]),
        st.one_of(st.integers(1, 400), st.integers(rng.CHUNK + 1, rng.CHUNK + 64)),
        st.integers(0, 2**32 - 1),
        st.sampled_from([1, 2]),
    )
    @example("zero", 1.0, 12, 4e-3, rng.CHUNK + 17, 5, 2)
    @example("ou", 0.3, 10, 1e-2, rng.CHUNK + 3, 6, 1)
    @example("bessel3", 0.05, 12, 1e-3, rng.CHUNK + 40, 7, 2)
    def test_survival_matches_mask_loop(self, drift, x_start, n_steps, dt, n_paths, seed, threads):
        curve, ref = _simulate_both(DriftSpec(drift, 0.0, 1.0, 1.0), x_start, n_steps, dt,
                                    MCConfig(n_paths, seed, threads=threads))
        assert np.array_equal(curve.survival, ref)

    def test_all_dead_before_t(self):
        # a drift of -5 toward the boundary kills every path well before t
        # (a driftless path from 0.01 survives to t = 1 with probability 0.008)
        spec = DriftSpec("linear", 0.0, 1.0, -5.0)
        curve, ref = _simulate_both(spec, 0.01, 100, 0.01, MCConfig(20, 15))
        assert curve.survival[-2] == 0.0  # every path died before t; later steps draw nothing
        assert np.array_equal(curve.survival, ref)

    @given(
        st.floats(-5.0, 5.0),
        st.lists(st.tuples(st.floats(1e-12, 50.0), st.floats(-50.0, 50.0)), min_size=1, max_size=40),
        st.sampled_from([2.5e-4, 1e-3, 4e-3, 1e-2]),
    )
    @example(0.0, [(1.0, 0.0185), (1.0, float(np.nextafter(0.0185, 0.0))), (1.0, float(np.nextafter(0.0185, 1.0))),
                   (1.0, 0.0), (1.0, -1e-300), (0.5, 40.0)], 1e-3)
    @example(-1.5, [(2.0, -1.5), (1e-12, 3.0), (37.0 * 4e-3 / 2.0, 1.0)], 4e-3)
    def test_bridge_set_holds_every_possible_kill(self, l, offsets, dt):
        xa = l + np.array([a for a, _ in offsets])
        xb = l + np.array([b for _, b in offsets])
        near, arg = _bridge_candidates(xa, xb, l, dt)
        gobet = -2.0 * np.maximum(xa - l, 0.0) * np.maximum(xb - l, 0.0) / dt
        assert np.isin(np.flatnonzero((gobet > -BRIDGE_CUT) | (xb <= l)), near).all()
        outside = np.setdiff1d(np.arange(xa.size), near)
        assert np.all(gobet[outside] <= -BRIDGE_CUT)  # kill probability at most e^-37
        with np.errstate(over="ignore"):
            assert np.array_equal(np.minimum(np.exp(arg), 1.0), np.exp(gobet[near]))

    def test_bridge_stream_read_only_by_the_bridge(self, monkeypatch):
        opened = []
        original = rng.stream

        def recording(seed, tag, index=0):
            gen = original(seed, tag, index)
            opened.append((tag, gen, original(seed, tag, index)))
            return gen

        monkeypatch.setattr(rng, "stream", recording)
        simulate_killed_diffusion(ZERO, 0.2, 0.5, 1e-2, MCConfig(rng.CHUNK + 50, 23))
        # an untouched stream still yields what a fresh one yields first
        advanced = {tag for tag, gen, fresh in opened
                    if gen.bit_generator.random_raw() != fresh.bit_generator.random_raw()}
        assert advanced == {"feller.kill.normals", "feller.kill.bridge"}

    def test_thread_count_does_not_change_curves(self):
        curves = [simulate_killed_diffusion(ZERO, 0.5, 0.5, 1e-2,
                                            MCConfig(2 * rng.CHUNK + 100, 29, threads=threads))
                  for threads in (1, 2, 4)]
        assert all(np.array_equal(curves[0].survival, curve.survival) for curve in curves[1:])

    @pytest.mark.parametrize("seed", [301, 302, 303])
    def test_killed_bm_matches_erf_on_fresh_seeds(self, seed):
        # driftless paths with the bridge correction are killed with the exact
        # probability, so the Euler step adds no bias to erf(1/sqrt 2)
        curve = simulate_killed_diffusion(ZERO, 1.0, 1.0, 4e-3, MCConfig(50000, seed, threads=2))
        assert abs(curve.final - erf(1.0 / np.sqrt(2.0))) <= 5.0 * curve.final_stderr


class TestVerdictAgreement:
    """Feller verdicts against killed-diffusion behaviour on the canonical drifts."""

    def test_left_verdicts_match_simulation(self):
        for spec, dt, absorbs in ((ZERO, 1e-3, True), (OU, 1e-3, True), (BESSEL3, 2.5e-4, False)):
            verdict = feller_test(spec).left
            final = simulate_killed_diffusion(spec, 1.0, 1.0, dt, MCConfig(20000, 55, threads=2)).final
            if absorbs:
                assert verdict == "absorbing" and final < 0.9
            else:
                assert verdict == "non-absorbing" and final > 0.99


class TestTraceDecayLink:
    T_GRID = np.array([0.25, 0.5, 0.75, 1.0])

    def test_absorbing_boundary_witnesses_non_uniqueness(self):
        report = trace_decay_link(ZERO, 1.0, self.T_GRID, MCConfig(20000, 31, threads=2), dt=1e-3)
        assert report.witness
        assert report.max_separation_sigmas > 5.0
        assert np.all(np.diff(report.minimal) <= 1e-12)

    def test_non_absorbing_boundary_no_witness(self):
        report = trace_decay_link(BESSEL3, 1.0, self.T_GRID, MCConfig(20000, 32, threads=2), dt=2.5e-4)
        assert not report.witness

    def test_separation_is_one_minus_survival(self):
        # a conservative extension keeps trace 1, so the killed curve alone sets the separation
        report = trace_decay_link(ZERO, 1.0, self.T_GRID, MCConfig(2000, 34), dt=1e-2)
        sep = 1.0 - report.minimal
        k = int(np.argmax(sep))
        assert report.max_separation == sep.max()
        assert report.max_separation_sigmas == sep[k] / report.minimal_stderr[k]

    def test_time_zero_curves_agree(self):
        report = trace_decay_link(ZERO, 1.0, np.array([0.0, 0.5]), MCConfig(2000, 33), dt=1e-2)
        assert report.minimal[0] == 1.0
