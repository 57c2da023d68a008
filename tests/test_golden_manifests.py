"""Every sample config still gives the recorded bytes, at every seed and thread count.

The expected hashes are test data, written by ``tests/make_golden_manifests.py``.
"""

import json
import warnings

import pytest

from make_golden_manifests import MANIFESTS, MULTI_CHUNK, REPO, SEEDS, SHRINK, config_text, moved, run_case

GOLDEN = json.loads(MANIFESTS.read_text())


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_sample_config_reproduces_golden_manifest(name):
    assert sorted(GOLDEN[name]) == sorted(str(seed) for seed in SEEDS)
    for seed in SEEDS:
        # compared as JSON text, so a NaN metric equals itself
        want = json.dumps(GOLDEN[name][str(seed)], sort_keys=True)
        for threads in (1, 2) if name in MULTI_CHUNK else (1,):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # a sample run prints no numpy warning
                got = json.dumps(run_case(name, seed, threads), sort_keys=True)
            assert got == want, f"{name} at seed {seed}, threads {threads}"


def test_moved_names_every_changed_entry():
    new = json.loads(json.dumps(GOLDEN))
    assert moved(GOLDEN, new) == []
    case = new["dyson.cfg"]["7"]
    name = sorted(case["manifest"])[0]
    case["manifest"][name] = "0" * 64
    case["verdict"] = "fail"
    del new["feller_zero.cfg"]["13"]
    lines = moved(GOLDEN, new)
    assert f"dyson.cfg 7 {name}: \"{GOLDEN['dyson.cfg']['7']['manifest'][name]}\" -> \"{'0' * 64}\"" in lines
    assert 'dyson.cfg 7 verdict: "pass" -> "fail"' in lines
    assert "feller_zero.cfg 13 exit: 0 -> null" in lines
    assert all(line.startswith(("dyson.cfg 7 ", "feller_zero.cfg 13 ")) for line in lines)


#: Sample configs whose record has no metric verdict yet: mc-semigroup records estimates only.
NO_VERDICT = ("mc_semigroup_mixed.cfg",)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_every_sample_config_records_a_verdict(name):
    for seed, case in GOLDEN[name].items():
        has_verdict = any("verdict" in metric for metric in case["metrics"].values())
        assert has_verdict == (name not in NO_VERDICT), f"{name} at seed {seed}"


#: Sample configs whose verdicts come from Monte Carlo gates, and the metrics those gates judge.
GATED = {
    "char_check_gauss.cfg": {"worst_distance_over_budget"},
    "galilei_gauss.cfg": {"deviation_coarse", "deviation_fine"},
    "generator_check.cfg": {"max_deviation"},
    "killed_bm.cfg": {"survival"},
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_every_gated_verdict_records_z(name):
    # a stderr-band verdict carries the z of its gate; no other metric has one
    for seed, case in GOLDEN[name].items():
        with_z = {metric for metric, entry in case["metrics"].items() if "z" in entry}
        assert with_z == GATED.get(name, set()), f"{name} at seed {seed}"
        assert all("verdict" in case["metrics"][metric] for metric in with_z), f"{name} at seed {seed}"


def test_shrink_names_sample_configs():
    configs = {path.name for path in (REPO / "configs").glob("*.cfg")}
    assert set(SHRINK) | set(MULTI_CHUNK) <= configs
    for name in SHRINK:
        config_text(name)  # raises unless each key matches one line


def test_shrink_key_must_match_once(monkeypatch):
    monkeypatch.setitem(SHRINK, "dyson.cfg", {"n_paths": "10"})
    with pytest.raises(ValueError, match="matches 0 lines"):
        config_text("dyson.cfg")
