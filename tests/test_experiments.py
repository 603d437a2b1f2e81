"""Tests for the experiment harness: configs, determinism, CLI contract."""

import math
import os
import re

import pytest
from click.testing import CliRunner

from besselweights.cli import main
from besselweights.errors import ConfigError
from besselweights.experiments import (
    SCENARIOS,
    ScenarioConfig,
    Verdict,
    load_config,
    load_default_config,
)
from besselweights.experiments.bmo_equivalence import run_bmo_equivalence
from besselweights.experiments.config import parse_config_text
from besselweights.experiments.csvio import format_value, write_csv
from besselweights.experiments.power_sweep import run_power_weight_sweep
from besselweights.experiments.sparse_scaling import run_sparse_scaling

SMALL_SWEEP = {"pairs": "2:1", "depth": "6", "n_random": "10"}


def shipped(name: str, seed: int, out_dir, **params) -> ScenarioConfig:
    """The scenario's shipped config at `seed`, with `params` laid over it."""
    cfg = load_default_config(name, str(out_dir), seed)
    cfg.params.update(params)
    return cfg


class TestConfig:
    def test_parse_sections(self):
        text = """
[scenario]
name = demo
seed = 5
lam = 1.5

[tolerances]
slope_slack = 0.2
"""
        cfg = parse_config_text(text, "/tmp/x")
        assert cfg.name == "demo"
        assert cfg.seed == 5
        assert cfg.get_float("lam") == 1.5
        assert cfg.get_float("slope_slack") == 0.2

    def test_seed_mandatory(self):
        with pytest.raises(ConfigError):
            parse_config_text("[scenario]\nname = demo\n", "/tmp/x")

    def test_seed_override(self):
        cfg = parse_config_text("[scenario]\nname = demo\n", "/tmp/x", seed_override=9)
        assert cfg.seed == 9

    def test_missing_key_raises(self):
        cfg = parse_config_text("[scenario]\nname = d\nseed = 1\n", "/tmp/x")
        with pytest.raises(ConfigError):
            cfg.get("nope")

    def test_defaults_ship_for_every_scenario(self):
        for name in SCENARIOS:
            cfg = load_default_config(name, "/tmp/x")
            assert cfg.name == name
            assert isinstance(cfg.seed, int)

    def test_file_overlays_the_shipped_config(self, tmp_path):
        # the README's example: every key it leaves out keeps its shipped value
        cfg_file = tmp_path / "s.cfg"
        cfg_file.write_text(
            "[scenario]\nname = sparse-scaling\nseed = 7\nlam = 1.0\nps = 1.5 2 3\n"
            "deltas = 0.4 0.2 0.1 0.05 0.025\n\n[tolerances]\nslope_slack = 0.1\n"
            "ratio_margin = 1.25\n"
        )
        cfg = load_config("sparse-scaling", str(cfg_file), "/tmp/x")
        assert cfg.params == load_default_config("sparse-scaling", "/tmp/x").params
        cfg_file.write_text("[scenario]\nname = sparse-scaling\nseed = 2\nps = 2\n")
        cfg = load_config("sparse-scaling", str(cfg_file), "/tmp/x")
        assert (cfg.seed, cfg.get("ps"), cfg.get("depth_cap"), cfg.get("sparse_file")) == (2, "2", "120", "")
        assert cfg.get_float("ratio_margin") == 1.25

    @pytest.mark.parametrize("raw,value", [("20", 20), ("1e3", 1000), ("-10", -10)])
    def test_whole_numbers_read(self, raw, value):
        assert shipped("power-sweep", 1, "/tmp/x", n_random=raw).get_int("n_random") == value

    def test_verdict_without_checks_does_not_pass(self):
        assert not Verdict("demo").passed
        assert Verdict("demo").lines() == ["scenario demo: FAIL"]


class TestVerdictAdd:
    """A check passes exactly when the relation it prints holds."""

    @pytest.mark.parametrize(
        "relation,holds,fails",
        [("<=", 2.0, 2.5), (">=", 2.0, 1.5), (">", 2.5, 2.0), ("==", 2.0, 2.5), ("finite", 7.0, 0.0)],
    )
    def test_each_relation_on_both_sides_of_its_bound(self, relation, holds, fails):
        v = Verdict("demo")
        assert v.add("yes", holds, relation, 2.0, note="").passed
        assert not v.add("no", fails, relation, 2.0, note="").passed
        assert [c.relation for c in v.checks] == [relation] * 2 and not v.passed

    @pytest.mark.parametrize("relation", ["<=", ">=", ">", "==", "finite"])
    def test_nan_fails_every_relation(self, relation):
        assert not Verdict("demo").add("g", math.nan, relation, 1.5, note="").passed

    @pytest.mark.parametrize("measured", [0.0, -1.0, math.inf, -math.inf])
    def test_finite_rejects_zero_negatives_and_inf(self, measured):
        assert not Verdict("demo").add("g", measured, "finite", math.inf, note="").passed

    def test_unknown_relation_raises(self):
        v = Verdict("demo")
        with pytest.raises(ValueError, match="unknown relation '=<'"):
            v.add("g", 1.0, "=<", 2.0, note="")
        assert v.checks == []

    def test_nan_line_reads_fail(self):
        v = Verdict("demo")
        v.add("g", math.nan, ">=", 1.5, note="")
        assert v.lines() == ["scenario demo: FAIL", "  [FAIL] g: measured=nan >= bound=1.5"]


class TestCsv:
    def test_scientific_twelve_digits(self):
        assert format_value(1.0 / 3.0) == "3.33333333333e-01"
        assert format_value(True) == "true"
        assert format_value("abc") == "abc"

    def test_write_layout(self, tmp_path):
        path = write_csv(
            str(tmp_path / "t.csv"), ["note one"], ["a", "b"], [(1.0, "x")]
        )
        lines = open(path, encoding="utf-8").read().splitlines()
        assert lines[0] == "# note one"
        assert lines[1] == "a,b"
        assert lines[2] == "1.00000000000e+00,x"


class TestDeterminism:
    def test_byte_identical_artifacts(self, tmp_path):
        d1, d2 = str(tmp_path / "one"), str(tmp_path / "two")
        for d in (d1, d2):
            cfg = shipped("power-sweep", 3, d, **SMALL_SWEEP)
            run_power_weight_sweep(cfg)
        for name in sorted(os.listdir(d1)):
            b1 = open(os.path.join(d1, name), "rb").read()
            b2 = open(os.path.join(d2, name), "rb").read()
            assert b1 == b2

    def test_seed_changes_random_family_not_verdict(self, tmp_path):
        cfg1 = shipped("power-sweep", 3, tmp_path / "a", **SMALL_SWEEP)
        cfg2 = shipped("power-sweep", 4, tmp_path / "b", **SMALL_SWEEP)
        assert run_power_weight_sweep(cfg1).passed
        assert run_power_weight_sweep(cfg2).passed


class TestRunners:
    def test_sparse_scaling_small(self, tmp_path):
        cfg = shipped("sparse-scaling", 5, tmp_path, lam="1.0", ps="2", deltas="0.4 0.2 0.1",
                      family_depth="12")
        v = run_sparse_scaling(cfg)
        assert v.passed
        assert len(v.artifacts) == 2  # CSV sweep plus the replayable family
        assert all(os.path.exists(a) for a in v.artifacts)

    def test_sparse_scaling_builds_each_family_operator_once(self, tmp_path):
        from besselweights.experiments.sparse_scaling import run_operator_sweeps
        from besselweights.operators import sparse_apply

        built, applied = [], []

        def build(S, m):
            built.append(len(S.cubes))
            return (lambda f: applied.append(len(S.cubes)) or sparse_apply(S, f, m),)

        cfg = shipped("sparse-scaling", 5, tmp_path, lam="1.0", ps="1.5 2", deltas="0.4 0.2 0.1",
                      family_depth="12")
        assert run_operator_sweeps(cfg, build, ("sparse operator",), 1.0).passed
        assert built == [10, 10, 20]  # one build per delta, shared by both p
        # delta x witness: the images serve both p
        assert sorted(set(applied)) == [10, 20] and len(applied) == 3 * 7

    def test_commutator_bound_shares_each_familys_factors(self, tmp_path, monkeypatch):
        """One `oscillation_factors` build per family serves both variants, and
        each variant applies it once per witness."""
        from besselweights.experiments import commutator_bound

        built, applied = [], []
        build, apply = commutator_bound.oscillation_factors, commutator_bound.sparse_commutator_apply

        def count_build(S, b, m):
            factors = build(S, b, m)
            built.append((len(S.cubes), factors))
            return factors

        def count_apply(factors, f, m, variant):
            applied.append((factors, variant))
            return apply(factors, f, m, variant)

        monkeypatch.setattr(commutator_bound, "oscillation_factors", count_build)
        monkeypatch.setattr(commutator_bound, "sparse_commutator_apply", count_apply)
        cfg = shipped("commutator-bound", 5, tmp_path, lam="1.0", ps="1.5 2",
                      deltas="0.4 0.2 0.1", family_depth="12")
        verdict = commutator_bound.run_commutator_bound(cfg)
        assert len(verdict.checks) == 2 * 2 * 2 + 3 and len(verdict.artifacts) == 4
        # one build per delta, then the three structural instances
        assert [n for n, _ in built] == [10, 10, 20, 8, 8, 8]
        for _, factors in built[:3]:  # delta x variant x witness, no factor for p
            variants = sorted(v for fs, v in applied if fs is factors)
            assert variants == ["adjoint"] * 7 + ["left"] * 7
        assert len(applied) == 3 * 2 * 7 + 3

    def test_endpoint_halving_reads_the_median_alone(self, tmp_path, monkeypatch):
        """The halving threshold of each of the 28 grid and 16 seeded pairs
        reads the median on Btilde, not a full median split."""
        from besselweights import riesz
        from besselweights.experiments import endpoint

        splits, medians, median = [], [], endpoint.median
        monkeypatch.setattr(riesz, "median_split", lambda *a: splits.append(a))
        monkeypatch.setattr(endpoint, "median_split", lambda *a: splits.append(a), raising=False)
        monkeypatch.setattr(endpoint, "median", lambda *a: medians.append(a) or median(*a))
        verdict = endpoint.run_endpoint(load_default_config("endpoint", str(tmp_path)))
        (check,) = [c for c in verdict.checks if c.name.startswith("median-threshold halving")]
        assert check.passed
        assert splits == [] and len(medians) == 28 + 16

    def test_counterexample_gate_fails_on_zero_products(self, tmp_path, monkeypatch):
        """With every mass product zero the window has no ratio, so the
        per-decade gate has nothing to pass on and fails, as does the growth."""
        from besselweights.experiments import counterexample

        monkeypatch.setattr(counterexample, "counterexample_profile",
                            lambda lam, eps, ts: [(t, 0.0) for t in ts])
        verdict = counterexample.run_counterexample(
            load_default_config("counterexample", str(tmp_path)))
        gates = [c for c in verdict.checks if c.name.startswith(("strict per-decade", "divergence"))]
        assert len(gates) == 4 and not any(c.passed for c in gates)
        assert "[FAIL] strict per-decade gate lam=0.5: measured=nan >= bound=1.5" in gates[0].line()

    def test_replay_family_is_loaded_once(self, tmp_path, monkeypatch):
        """The stored family is read and verified once, and serves every delta."""
        from besselweights.experiments import sparse_scaling

        params = {"lam": "1.0", "ps": "2", "family_depth": "10"}
        v = run_sparse_scaling(shipped("sparse-scaling", 5, tmp_path, **params, deltas="0.4 0.2"))
        (fam_file,) = [a for a in v.artifacts if a.endswith(".sparse")]
        verified, verify = [], sparse_scaling.verify_sparse
        monkeypatch.setattr(sparse_scaling, "verify_sparse", lambda *a: verified.append(a) or verify(*a))
        cfg = shipped("sparse-scaling", 5, tmp_path / "replay", **params, sparse_file=fam_file,
                      deltas="0.4 0.2 0.1 0.05 0.025")
        assert run_sparse_scaling(cfg).passed and len(verified) == 1

    def test_bmo_equivalence_default_ratio_band(self, tmp_path):
        # a config file without [tolerances] gets the shipped band, not a looser one
        cfg_file = tmp_path / "b.cfg"
        cfg_file.write_text("[scenario]\nname = bmo-equivalence\nseed = 3\nn_cases = 3\n")
        v = run_bmo_equivalence(load_config("bmo-equivalence", str(cfg_file), str(tmp_path)))
        (check,) = [c for c in v.checks if c.name == "six-flavor ratio band"]
        assert check.bound == 8.0

    def test_verdict_lines_format(self, tmp_path):
        v = run_power_weight_sweep(shipped("power-sweep", 3, tmp_path, **SMALL_SWEEP))
        lines = v.lines()
        assert lines[0].startswith("scenario power-sweep:")
        assert any(line.strip().startswith("[PASS]") for line in lines)


class TestCli:
    def test_list_exits_zero(self):
        result = CliRunner().invoke(main, ["--list"])
        assert result.exit_code == 0
        for name in SCENARIOS:
            assert name in result.output

    def test_power_sweep_exit_zero(self, tmp_path):
        cfg_file = tmp_path / "p.cfg"
        cfg_file.write_text(
            "[scenario]\nname = power-sweep\nseed = 3\npairs = 2:1\ndepth = 6\n"
            "n_random = 10\n"
        )
        result = CliRunner().invoke(
            main,
            ["power-sweep", "--config", str(cfg_file), "--out", str(tmp_path / "out")],
        )
        assert result.exit_code == 0, result.output

    def test_bad_config_exit_one(self, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("[scenario]\nname = power-sweep\n")  # missing seed
        result = CliRunner().invoke(
            main, ["power-sweep", "--config", str(cfg_file), "--out", str(tmp_path)]
        )
        assert result.exit_code == 1

    @pytest.mark.parametrize(
        "scenario,raw,message",
        [
            ("power-sweep", b"bogus line\n[scenario]\nname = power-sweep\nseed = 3\n", "malformed"),
            ("power-sweep", b"[scenario]\nname = power-sweep\nseed = abc\n", "seed is not an integer"),
            ("power-sweep", b"[scenario]\nname = power-sweep\nseed = 3\nnote = \xff\n", "cannot read"),
            ("counterexample", b"[scenario]\nname = power-sweep\nseed = 3\n", "configures scenario 'power-sweep'"),
            ("power-sweep", b"[scenario]\nname = power-sweep\nseed = 3\nn_case = 2\n", "unknown config key.*n_case"),
            ("power-sweep", b"[scenario]\nname = power-sweep\nseed = 3\n[extra]\nx = 1\n", "found: scenario, extra"),
            ("power-sweep", b"[DEFAULT]\npairs = 2:1\n[scenario]\nname = power-sweep\nseed = 3\n", "found: DEFAULT, scenario"),
            ("bmo-equivalence", b"[scenario]\nname = bmo-equivalence\nseed = 3\nn_cases = 0\n", "n_cases.*at least 1"),
            ("bmo-equivalence", b"[scenario]\nname = bmo-equivalence\nseed = 3\nn_cases = 1.9\n", "n_cases.*whole"),
            ("bmo-equivalence", b"[scenario]\nname = bmo-equivalence\nseed = 3\nn_cases = nan\n", "n_cases.*whole"),
            ("bmo-equivalence", b"[scenario]\nname = bmo-equivalence\nseed = 3\nn_cases = inf\n", "n_cases.*whole"),
            ("sparse-scaling", b"[scenario]\nname = sparse-scaling\nseed = 3\nps =\n", "'ps' is an empty list"),
            ("power-sweep", b"[scenario]\nname = power-sweep\nseed = 3\npairs = 2:1 2\n", "token '2' is not p:lam"),
            ("power-sweep", b"[scenario]\nname = power-sweep\nseed = 3\npairs =\n", "'pairs' is an empty list"),
            ("endpoint", b"[scenario]\nname = endpoint\nseed = 3\nn_pairs = 0\n", "n_pairs.*at least 1"),
            ("endpoint", b"[scenario]\nname = endpoint\nseed = 3\nlam = 0.5\n", r"alpha = 2 is outside .* \(-1, 1\]"),
            ("endpoint", b"[scenario]\nname = endpoint\nseed = 3\nalpha = -1\n", "alpha = -1 is outside"),
            # parameters outside the domain of the scenario's mathematics
            ("sparse-scaling", b"[scenario]\nname = sparse-scaling\nseed = 3\nps = 1 2\n", "key 'ps' must hold values > 1"),
            ("bmo-equivalence", b"[scenario]\nname = bmo-equivalence\nseed = 3\np = 1\n", "key 'p' must be > 1"),
            ("sparse-scaling", b"[scenario]\nname = sparse-scaling\nseed = 3\ndeltas = 0\n", "key 'deltas' must hold values > 0"),
            ("counterexample", b"[scenario]\nname = counterexample\nseed = 3\neps = 0\n", "key 'eps' must be > 0"),
            ("endpoint", b"[scenario]\nname = endpoint\nseed = 3\neps = 0\n", "key 'eps' must be > 0"),
            ("bmo-equivalence", b"[scenario]\nname = bmo-equivalence\nseed = 3\nlam = 0\n", "key 'lam' must be > 0"),
            ("commutator-bound", b"[scenario]\nname = commutator-bound\nseed = 3\nlam = -1\n", "key 'lam' must be > 0"),
            ("counterexample", b"[scenario]\nname = counterexample\nseed = 3\nlams = 0\n", "key 'lams' must hold values > 0"),
            ("power-sweep", b"[scenario]\nname = power-sweep\nseed = 3\npairs = 2:0\n", "key 'pairs' must hold .* lam > 0"),
            ("power-sweep", b"[scenario]\nname = power-sweep\nseed = 3\npairs = 1:1\n", "key 'pairs' must hold .*p > 1"),
            ("bmo-equivalence", b"[scenario]\nname = bmo-equivalence\nseed = 3\ns = 0.7\n", r"key 's' must lie in \(0, 1/2\]"),
            ("endpoint", b"[scenario]\nname = endpoint\nseed = 3\nphi_eps = 2\n", r"key 'phi_eps' must lie in \(0, 1\]"),
            ("counterexample", b"[scenario]\nname = counterexample\nseed = 3\nt_low_exponent = -1\nt_high_exponent = -2\n",
             "key 't_low_exponent' must be below t_high_exponent"),
        ],
        ids=["no-section-header", "non-integer-seed", "not-utf-8", "other-scenario", "unknown-key",
             "unknown-section", "default-section", "n_cases-0", "n_cases-1.9", "n_cases-nan",
             "n_cases-inf", "empty-ps", "pair-without-lam", "empty-pairs", "n_pairs-0",
             "lam-without-alpha", "alpha-at-minus-one", "ps-1", "bmo-p-1", "deltas-0",
             "counterexample-eps-0", "endpoint-eps-0", "bmo-lam-0", "commutator-lam-minus-1", "lams-0",
             "pair-lam-0", "pair-p-1", "s-0.7", "phi_eps-2", "empty-decade-window"],
    )
    def test_malformed_config_prints_one_line(self, tmp_path, scenario, raw, message):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_bytes(raw)
        result = CliRunner().invoke(
            main, [scenario, "--config", str(cfg_file), "--out", str(tmp_path / "out")]
        )
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        assert len(result.stderr.splitlines()) == 1
        assert re.match(f"config error: .*{message}", result.stderr)
        assert "Traceback" not in result.output and result.stdout == ""
        assert not (tmp_path / "out").exists()  # rejected before any work

    def test_counterexample_exit_two_documented_gate(self, tmp_path):
        # the strict per-decade gate cannot hold for the logarithmic tail
        # product; the scenario reports FAIL and the CLI exits 2
        result = CliRunner().invoke(
            main, ["counterexample", "--out", str(tmp_path / "out")]
        )
        assert result.exit_code == 2
        assert "strict per-decade gate" in result.output
        assert "divergence without bound" in result.output


class TestSparseReplay:
    def test_family_artifact_roundtrips_and_replays(self, tmp_path):
        from besselweights.dyadic import SparseFamily

        params = {"lam": "1.0", "ps": "2", "deltas": "0.4 0.2", "family_depth": "10"}
        v = run_sparse_scaling(shipped("sparse-scaling", 5, tmp_path, **params))
        fam_files = [a for a in v.artifacts if a.endswith(".sparse")]
        assert len(fam_files) == 1
        with open(fam_files[0], encoding="utf-8") as fh:
            S = SparseFamily.from_lines(fh)
        assert len(S.cubes) >= 10
        # replay: feed the stored family back in place of the generator
        cfg2 = shipped("sparse-scaling", 5, tmp_path / "replay", **params, sparse_file=fam_files[0])
        v2 = run_sparse_scaling(cfg2)
        assert v2.passed

    @staticmethod
    def _replay(tmp_path, lines):
        path = tmp_path / "family.sparse"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        cfg = shipped("sparse-scaling", 5, tmp_path / "out", lam="1.0", ps="2", deltas="0.4 0.2",
                      family_depth="10", sparse_file=str(path))
        return run_sparse_scaling(cfg)

    @staticmethod
    def _chain_lines():
        from besselweights.dyadic import canonical_major_subsets, zero_chain
        from besselweights.measure import BesselMeasure

        return canonical_major_subsets(zero_chain(list(range(12))), BesselMeasure(1.0)).to_lines()

    @pytest.mark.parametrize(
        "tamper,message",
        [
            # the chain's subsets carry 7/8 of each cube's mass; claim 15/16
            pytest.param(
                lambda lines: [" ".join(ln.split()[:2] + ["15", "16"] + ln.split()[4:]) for ln in lines],
                "exceeds",
                id="eta-raised",
            ),
            # the deepest cube's E_Q moved to just past [0, 1): mass ratio and
            # disjointness still hold, containment does not
            pytest.param(
                lambda lines: lines[:-1] + [" ".join(lines[-1].split()[:4] + ["1.0", repr(1.0 + 2.0**-12)])],
                "not inside",
                id="subset-outside-its-cube",
            ),
            pytest.param(lambda lines: lines + lines[:1], "line 13: .*repeated", id="repeated-cube"),
        ],
    )
    def test_tampered_file_rejected(self, tmp_path, tamper, message):
        with pytest.raises(ConfigError, match=message):
            self._replay(tmp_path, tamper(self._chain_lines()))

    def test_overlapping_subsets_rejected(self, tmp_path):
        from besselweights.errors import DisjointnessError

        lines = self._chain_lines()
        first = lines[0].split()
        lines[0] = " ".join(first[:4] + ["0.3"] + first[5:])  # E_Q of [0,1) reaches into [0,1/2)
        with pytest.raises(DisjointnessError):
            self._replay(tmp_path, lines)

    def test_deep_round_trip_within_eta_slack(self, tmp_path):
        from besselweights.dyadic import SparseFamily, canonical_major_subsets, zero_chain
        from besselweights.experiments.sparse_scaling import _load_replay_family
        from besselweights.measure import BesselMeasure

        m = BesselMeasure(1.0)
        lines = canonical_major_subsets(zero_chain(list(range(120))), m).to_lines()
        assert SparseFamily.from_lines(lines).eta == 0.875  # measured: 0.8749999999999695
        path = tmp_path / "deep.sparse"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert len(_load_replay_family(str(path), m).cubes) == 120
